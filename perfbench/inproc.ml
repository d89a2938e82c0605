(* The traced run's in-process replay: the workload's op sequence runs
   through the same layer functions the server calls for each request,
   with a span around each call. Reply frames cross a socketpair to a
   reader thread; the journal writes to a scratch data dir under the
   same sync policy as the served run; semi-sync uses an in-process
   replication primary/standby pair. Counts come from Machine.stats,
   Journal.stats, Gc.quick_stat and the replication feed. *)

type counts = {
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable failed : int;
  mutable subgoals : int;
  mutable answers : int;
  mutable dup_answers : int;
  mutable resumptions : int;
  mutable repairs : int;
  mutable invalidations : int;
  mutable eval_minor_words : float;
  mutable frames : int;
  mutable reply_bytes : int;
  mutable replies : int;
  mutable waits : int;
  mutable degraded : int;
  mutable lag_max : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable records : int;
  mutable journal_bytes : int;
  mutable fsyncs : int;
  mutable shipped : int;
}

let zero () =
  {
    ops = 0;
    reads = 0;
    writes = 0;
    failed = 0;
    subgoals = 0;
    answers = 0;
    dup_answers = 0;
    resumptions = 0;
    repairs = 0;
    invalidations = 0;
    eval_minor_words = 0.0;
    frames = 0;
    reply_bytes = 0;
    replies = 0;
    waits = 0;
    degraded = 0;
    lag_max = 0;
    minor_words = 0.0;
    major_collections = 0;
    records = 0;
    journal_bytes = 0;
    fsyncs = 0;
    shipped = 0;
  }

(* the engine counters an op moved *)
let snapshot (s : Xsb.Machine.stats) =
  Xsb.Machine.
    [| s.st_subgoals; s.st_answers; s.st_dup_answers; s.st_resumptions; s.st_repairs; s.st_invalidations |]

let add_engine c before after =
  let d i = after.(i) - before.(i) in
  c.subgoals <- c.subgoals + d 0;
  c.answers <- c.answers + d 1;
  c.dup_answers <- c.dup_answers + d 2;
  c.resumptions <- c.resumptions + d 3;
  c.repairs <- c.repairs + d 4;
  c.invalidations <- c.invalidations + d 5

(* the client end of the reply channel: a thread that reads each
   reply's frames once the writer has handed it over *)
type wire = {
  oc : out_channel;
  ic : in_channel;
  ready : Semaphore.Binary.t;  (** a reply is buffered in the socket *)
  read_done : Semaphore.Binary.t;
  mutable job : (int * int) option;  (** (request id, parent span) of the reply to read *)
  mutable rows : string list;
  mutable stop : bool;
}

let reader tr w () =
  let rec loop () =
    Semaphore.Binary.acquire w.ready;
    if not w.stop then begin
      let rid, parent = Option.get w.job in
      let rows =
        Trace.span tr ~rid ~parent "protocol.read_reply" (fun _ ->
            let rec frames acc =
              match Xsb_server.Protocol.read_reply w.ic with
              | Xsb_server.Protocol.Answer s -> frames (s :: acc)
              | _ -> List.rev acc
            in
            frames [])
      in
      w.rows <- rows;
      Semaphore.Binary.release w.read_done;
      loop ()
    end
  in
  loop ()

let open_wire tr =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* room for a whole reply, so the writer never waits on the reader *)
  Unix.setsockopt_int a Unix.SO_SNDBUF (1 lsl 20);
  Unix.setsockopt_int b Unix.SO_RCVBUF (1 lsl 20);
  let w =
    {
      oc = Unix.out_channel_of_descr a;
      ic = Unix.in_channel_of_descr b;
      ready = Semaphore.Binary.make false;
      read_done = Semaphore.Binary.make false;
      job = None;
      rows = [];
      stop = false;
    }
  in
  (w, Thread.create (reader tr w) ())

let close_wire (w, th) =
  w.stop <- true;
  Semaphore.Binary.release w.ready;
  Thread.join th;
  close_out_noerr w.oc;
  close_in_noerr w.ic

(* write [replies] as the server does, then let the reader decode them *)
let send tr c (w, _) ~rid ~parent replies =
  let p0 = pos_out w.oc in
  Trace.span tr ~rid ~parent "protocol.write_reply" (fun _ ->
      List.iter (Xsb_server.Protocol.write_reply w.oc) replies);
  c.reply_bytes <- c.reply_bytes + (pos_out w.oc - p0);
  c.frames <- c.frames + List.length replies;
  c.replies <- c.replies + 1;
  w.job <- Some (rid, parent);
  Semaphore.Binary.release w.ready;
  Semaphore.Binary.acquire w.read_done;
  w.rows

(* durable state for the replay: a journal on a scratch dir, fed the
   database's mutations explicitly (as the server's deferred hook
   does), plus an optional replication pair *)
type durable = {
  journal : Xsb.Journal.t;
  pending : Xsb.Journal.mutation Queue.t;
  primary : Xsb_repl.Repl.Primary.t option;
  standby : (Xsb_repl.Repl.Standby.t * Xsb.Journal.t) option;
}

let sync_policy = Xsb.Journal.default_group

let open_durable ~workdir ~standby db =
  let dir name = Proc.fresh_dir (Filename.concat workdir name) in
  let cfg =
    {
      (Xsb.Journal.default_config ~dir:(dir "inproc-primary")) with
      Xsb.Journal.sync = sync_policy;
      keep_generations = (if standby then 1 else 0);
    }
  in
  let journal = Xsb.Journal.open_ cfg db in
  let pending = Queue.create () in
  Xsb.Database.on_mutation db (fun m -> Queue.push (Xsb.Journal.of_db_mutation m) pending);
  if not standby then { journal; pending; primary = None; standby = None }
  else begin
    let primary = Xsb_repl.Repl.Primary.start ~port:0 ~journal () in
    let sdir = dir "inproc-standby" in
    let sdb = Xsb.Database.create () in
    let scfg = { cfg with Xsb.Journal.dir = sdir } in
    let sj = Xsb.Journal.open_ scfg sdb in
    let generation, offset = Xsb.Journal.position sj in
    let m = Mutex.create () in
    let s =
      Xsb_repl.Repl.Standby.start ~primary_host:"127.0.0.1"
        ~primary_port:(Xsb_repl.Repl.Primary.port primary)
        ~dir:sdir ~generation ~offset ~epoch:(Xsb.Journal.epoch sj) ~keep_generations:1
        ~apply:(fun mu -> Mutex.protect m (fun () -> Xsb.Journal.apply_mutation sdb mu))
        ()
    in
    { journal; pending; primary = Some primary; standby = Some (s, sj) }
  end

let close_durable d =
  Option.iter (fun (s, sj) -> Xsb_repl.Repl.Standby.stop s; Xsb.Journal.close sj) d.standby;
  Option.iter Xsb_repl.Repl.Primary.stop d.primary;
  Xsb.Journal.close d.journal

(* flush the captured mutations into the journal and wait until they
   are durable (and, under semi-sync, on the standby) *)
let commit tr c d ~rid ~parent =
  let span name f = Trace.span tr ~rid ~parent name (fun _ -> f ()) in
  span "journal.append" (fun () ->
      while not (Queue.is_empty d.pending) do
        Xsb.Journal.enqueue d.journal (Queue.pop d.pending)
      done);
  span "journal.barrier" (fun () -> Xsb.Journal.barrier d.journal);
  match (d.primary, d.standby) with
  | Some prim, Some (s, _) ->
      let gen, off = Xsb.Journal.durable_position d.journal in
      (* how far the standby's applied frontier trails the primary's
         durable one when the primary starts waiting *)
      let st = Xsb_repl.Repl.Standby.status s in
      if st.Xsb_repl.Repl.Standby.generation = gen then
        c.lag_max <- max c.lag_max (off - st.Xsb_repl.Repl.Standby.applied_off);
      let synced =
        span "repl.wait_synced" (fun () ->
            Xsb_repl.Repl.Primary.wait_synced prim ~k:1 ~gen ~off ~timeout_s:1.0)
      in
      c.waits <- c.waits + 1;
      if not synced then c.degraded <- c.degraded + 1
  | _ -> ()

let await_standby d =
  match d.standby with
  | None -> ()
  | Some (s, _) ->
      let deadline = Xsb.Mclock.now () +. 30.0 in
      let caught_up () =
        let st = Xsb_repl.Repl.Standby.status s in
        let g, o = Xsb.Journal.durable_position d.journal in
        st.Xsb_repl.Repl.Standby.generation = g && st.Xsb_repl.Repl.Standby.applied_off >= o
      in
      while (not (caught_up ())) && Xsb.Mclock.now () < deadline do
        Thread.delay 0.001
      done

(* replay one round, adding its counts into [c] *)
let replay ~workdir ~round tr c (w : Workload.t) =
  let sessions =
    if w.Workload.durable then
      let s = Xsb.Session.create () in
      Array.make Workload.clients s
    else Array.init Workload.clients (fun _ -> Xsb.Session.create ())
  in
  let distinct = if w.Workload.durable then [ sessions.(0) ] else Array.to_list sessions in
  let durable =
    if w.Workload.durable then
      Some (open_durable ~workdir ~standby:w.Workload.standby (Xsb.Session.db sessions.(0)))
    else None
  in
  List.iter
    (fun s ->
      Xsb.Session.consult s w.Workload.program;
      List.iter (fun g -> ignore (Xsb.Session.query s g)) w.Workload.warm)
    distinct;
  (* the consulted program becomes durable (and reaches the standby)
     before the replay, outside its spans and counts *)
  Option.iter
    (fun d ->
      commit (Trace.create ()) (zero ()) d ~rid:0 ~parent:0;
      await_standby d)
    durable;
  let wire = open_wire tr in
  let journal_stats () =
    match durable with
    | None -> (0, 0, 0)
    | Some d ->
        let s = Xsb.Journal.stats d.journal in
        Xsb.Journal.(s.records_appended, s.bytes_appended, s.fsyncs)
  in
  let shipped () =
    match durable with
    | Some { primary = Some p; _ } -> Xsb_repl.Repl.Primary.shipped_bytes p
    | _ -> 0
  in
  let r0, b0, f0 = journal_stats () and sh0 = shipped () in
  let gc0 = Gc.quick_stat () in
  let longest = Array.fold_left (fun m ops -> max m (Array.length ops)) 0 w.Workload.clients in
  (* the clients' sequences interleaved op by op, in a fixed order *)
  for i = 0 to longest - 1 do
    Array.iteri
      (fun k ops ->
        if i < Array.length ops then begin
          let session = sessions.(k) in
          let db = Xsb.Session.db session and eng = Xsb.Session.engine session in
          let rid = (round * 100_000_000) + (k * 10_000_000) + i + 1 in
          c.ops <- c.ops + 1;
          Trace.span tr ~rid "op" (fun parent ->
              let span name f = Trace.span tr ~rid ~parent name (fun _ -> f ()) in
              let parse text =
                span "parse.goal" (fun () ->
                    Xsb.Parser.term_of_string ~ops:(Xsb.Database.ops db) text)
              in
              match ops.(i) with
              | Workload.Read { abolish; goal; expect } ->
                  c.reads <- c.reads + 1;
                  let term = parse goal in
                  if abolish then span "slg.reset" (fun () -> Xsb.Engine.reset_tables eng);
                  let before = snapshot (Xsb.Engine.stats eng) in
                  let words0 = Gc.minor_words () in
                  let sols =
                    span "slg.eval" (fun () ->
                        match Xsb.Engine.run_bounded ~max_steps:10_000_000 eng term with
                        | `Answers s -> s
                        | `Truncated s | `Timeout s -> c.failed <- c.failed + 1; s)
                  in
                  c.eval_minor_words <- c.eval_minor_words +. (Gc.minor_words () -. words0);
                  add_engine c before (snapshot (Xsb.Engine.stats eng));
                  let rows =
                    span "core.render" (fun () ->
                        List.map (fun s -> Fmt.str "%a" (Xsb.Session.pp_solution session) s) sols)
                  in
                  let replies =
                    List.map (fun r -> Xsb_server.Protocol.Answer r) rows
                    @ [ Xsb_server.Protocol.Done { count = List.length rows; more = false } ]
                  in
                  let got = send tr c wire ~rid ~parent replies in
                  if List.sort compare got <> expect then c.failed <- c.failed + 1
              | Workload.Write { clause } ->
                  c.writes <- c.writes + 1;
                  let term = parse clause in
                  let before = snapshot (Xsb.Engine.stats eng) in
                  span "db.add_clause" (fun () ->
                      (* as the server's ASSERT: a runtime assert makes
                         the predicate dynamic *)
                      let head, _ = Xsb.Database.clause_parts term in
                      (match Xsb.Term.deref head with
                      | Xsb.Term.Struct (name, args) ->
                          ignore (Xsb.Database.set_dynamic db name (Array.length args))
                      | _ -> ());
                      ignore (Xsb.Database.add_clause db term));
                  add_engine c before (snapshot (Xsb.Engine.stats eng));
                  Option.iter (commit tr c ~rid ~parent) durable;
                  ignore (send tr c wire ~rid ~parent [ Xsb_server.Protocol.Ok_ "asserted" ]))
        end)
      w.Workload.clients
  done;
  let gc1 = Gc.quick_stat () in
  let r1, b1, f1 = journal_stats () in
  c.minor_words <- c.minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
  c.major_collections <- c.major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
  c.records <- c.records + r1 - r0;
  c.journal_bytes <- c.journal_bytes + b1 - b0;
  c.fsyncs <- c.fsyncs + f1 - f0;
  c.shipped <- c.shipped + shipped () - sh0;
  close_wire wire;
  Option.iter close_durable durable
