(* The benchmark's load generator and tracer. See README.md in this
   directory for the workloads and the metrics; run.py builds the
   server and this program and invokes it as

     xsbperf.exe run --workload W --seed N --seconds S --trace 0|1
                     --server PATH --workdir DIR [--rev REV]
     xsbperf.exe selftest

   The last line of a run's stdout is one JSON object: correct,
   attempted, failed and metrics (end-to-end metrics untraced, per-layer
   metrics traced). The line before it carries the run's metadata. *)

(* set-up is timed at least [min_setups] times, and again while the
   extra set-ups add up to less than [setup_budget_s], up to
   [max_setups]: a fast set-up's median rests on more samples *)
let min_setups = 9
let max_setups = 40
let setup_budget_s = 1.0

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* numbers keep every digit measured; JSON has no infinities *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit_)
          metrics))

let p50 s = Stats.median (Stats.to_array s)
let p99 s = Stats.quantile (Stats.to_array s) 0.99

(* the op whose latency a workload is judged by: the write on the
   ASSERT-only workload, the read everywhere else *)
let headline_is_write (w : Workload.t) = w.Workload.name = "semisync-writes"

let headline w (o : Load.outcome) = if headline_is_write w then o.Load.writes else o.Load.reads

let meta ~rounds ~seed ~seconds ~trace ~rev extra =
  let w = List.hd rounds in
  let open Xsb.Json in
  to_string
    (Obj
       ([
          ("workload", String w.Workload.name);
          ("seed", Int seed);
          ("seconds", Int seconds);
          ("trace", Bool trace);
          ("nproc", Int (Domain.recommended_domain_count ()));
          ("ocaml", String Sys.ocaml_version);
          ("rev", String rev);
          ("clients", Int Workload.clients);
          ("rounds", Int (List.length rounds));
          ("ops", Int (Workload.total_ops rounds));
          ("ops_per_client_per_round", Int (Array.length w.Workload.clients.(0)));
          ( "sync_policy",
            String
              (if w.Workload.durable then Xsb.Journal.sync_policy_to_string Inproc.sync_policy
               else "none (in-memory sessions)") );
          ("sync_standbys", Int (if w.Workload.standby then 1 else 0));
        ]
       @ extra))

let timed_start ~workdir w =
  let t0 = Xsb.Mclock.now () in
  let sut = Sut.start ~workdir w in
  (sut, Xsb.Mclock.now () -. t0)

(* one measured round on a set-up system: drive the load, read the
   servers' peak RSS, check durability, tear down. Traced rounds also
   return how much each METRICS series grew under the load. *)
let measure ?tracer ~seed ~round w sut =
  match
    let before = if tracer <> None then Sut.scrape sut else [] in
    let last_ack = if sut.Sut.standby_conns = [||] then None else Some (Sut.on_standby sut) in
    let o = Load.run ?tracer ?last_ack ~seed ~round w sut.Sut.conns in
    let after = if tracer <> None then Sut.scrape sut else [] in
    let rss = Sut.peak_rss_mb sut in
    let lost, missing = Sut.post_check sut w ~acked:o.Load.acked in
    List.iter (fun r -> Load.note o (Printf.sprintf "seed %d: acked write missing: %s" seed r)) missing;
    o.Load.failed <- o.Load.failed + lost;
    (o, rss, Sut.deltas ~before ~after)
  with
  | r ->
      Sut.stop sut;
      r
  | exception e ->
      Proc.reap_all ();
      raise e

(* every round in turn, each on a fresh set-up; returns the merged
   outcome, the highest peak RSS, the summed METRICS deltas and each
   set-up's duration *)
let measure_rounds ?tracer ~workdir ~seed rounds =
  let total = Load.outcome () in
  let results =
    List.mapi
      (fun round w ->
        let sut, dt = timed_start ~workdir w in
        let o, rss, deltas = measure ?tracer ~seed ~round w sut in
        Load.merge total o;
        (rss, deltas, dt))
      rounds
  in
  let rss = List.fold_left (fun m (r, _, _) -> Float.max m r) 0.0 results in
  let deltas = List.fold_left (fun acc (_, d, _) -> Sut.add_deltas acc d) [] results in
  (total, rss, deltas, List.map (fun (_, _, dt) -> dt) results)

let log_problems (o : Load.outcome) = List.iter (fun p -> Printf.eprintf "FAILED %s\n%!" p) o.Load.problems

let run_untraced ~workdir ~seed ~seconds ~rev rounds =
  let w = List.hd rounds in
  (* set-up is timed on its own: each round's set-up, plus extra ones
     torn down unmeasured *)
  let rec more n spent acc =
    if n >= max_setups || (n >= min_setups && spent >= setup_budget_s) then acc
    else begin
      let sut, dt = timed_start ~workdir w in
      Sut.stop sut;
      more (n + 1) (spent +. dt) (dt :: acc)
    end
  in
  let extra = more (List.length rounds) 0.0 [] in
  let o, rss, _, times = measure_rounds ~workdir ~seed rounds in
  log_problems o;
  let lat = headline w o in
  print_endline
    (meta ~rounds ~seed ~seconds ~trace:false ~rev
       Xsb.Json.
         [
           ( "samples",
             Obj
               [
                 ("op", Int (Stats.count lat));
                 ("rate_windows", Int (Stats.count o.Load.rates));
                 ("setup", Int (List.length (extra @ times)));
               ] );
         ]);
  print_endline
    (result_line ~correct:(o.Load.failed = 0) ~attempted:o.Load.attempted ~failed:o.Load.failed
       [
         m "setup_s" "s" (Stats.median_list (extra @ times));
         m "ops_per_s" "1/s" (p50 o.Load.rates);
         m "op_p50_us" "us" (p50 lat);
         m "server_peak_rss_mb" "MB" rss;
       ])

let run_traced ~workdir ~seed ~seconds ~rev rounds =
  let w = List.hd rounds in
  (* 1. untraced and traced passes over TCP, each round on a fresh set-up *)
  let plain, _, _, _ = measure_rounds ~workdir ~seed rounds in
  let client_tr = Trace.create () in
  let traced, _, deltas, _ = measure_rounds ~tracer:client_tr ~workdir ~seed rounds in
  (* 2. the same ops in process, through the layer functions *)
  let tr = Trace.create () in
  let c = Inproc.zero () in
  List.iteri (fun round w -> Inproc.replay ~workdir ~round tr c w) rounds;
  log_problems plain;
  log_problems traced;
  let layer name = Stats.median (Trace.per_op_us tr name) in
  let per_op x = Stats.ratio x (float_of_int c.Inproc.ops) in
  let reads = float_of_int c.Inproc.reads and writes = float_of_int c.Inproc.writes in
  let head_plain = p50 (headline w plain) and head_traced = p50 (headline w traced) in
  let is_write = headline_is_write w in
  (* server-side means from the METRICS histograms' sum and count, so
     the remainder of the client's mean round trip is exact *)
  let served op = Sut.request_mean_us deltas op in
  let server_us =
    if is_write then served "ASSERT"
    else served "QUERY" +. if w.Workload.name = "cold-eval" then served "ABOLISH" else 0.0
  in
  let grew = Sut.grew deltas in
  let user_bytes = List.fold_left (fun n cl -> n + String.length cl) 0 traced.Load.acked in
  let wire = [ "parse.goal"; "protocol.write_reply"; "protocol.read_reply" ] in
  let path =
    if is_write then wire @ [ "db.add_clause"; "journal.append"; "journal.barrier"; "repl.wait_synced" ]
    else wire @ [ "slg.reset"; "slg.eval"; "core.render" ]
  in
  let attempted = plain.Load.attempted + traced.Load.attempted + c.Inproc.ops in
  let failed = plain.Load.failed + traced.Load.failed + c.Inproc.failed in
  let answers = float_of_int c.Inproc.answers in
  let metrics =
    [
      m "read_p50_us" "us" (p50 plain.Load.reads);
      m "read_p99_us" "us" (p99 plain.Load.reads);
      m "write_p50_us" "us" (p50 plain.Load.writes);
      m "write_p99_us" "us" (p99 plain.Load.writes);
      m "failed_ratio" "ratio" (Stats.ratio (float_of_int failed) (float_of_int attempted));
      m "parse.goal_us" "us" (layer "parse.goal");
      m "slg.reset_us" "us" (layer "slg.reset");
      m "slg.eval_us" "us" (layer "slg.eval");
      m "slg.minor_words_per_answer" "words" (Stats.ratio c.Inproc.eval_minor_words answers);
      m "slg.subgoals_per_op" "count" (Stats.ratio (float_of_int c.Inproc.subgoals) reads);
      m "slg.answers_per_op" "count" (Stats.ratio answers reads);
      m "slg.dup_answer_ratio" "ratio"
        (Stats.ratio (float_of_int c.Inproc.dup_answers) (answers +. float_of_int c.Inproc.dup_answers));
      m "slg.resumptions_per_answer" "ratio" (Stats.ratio (float_of_int c.Inproc.resumptions) answers);
      m "slg.repairs_per_write" "ratio" (Stats.ratio (float_of_int c.Inproc.repairs) writes);
      m "slg.invalidations_per_write" "ratio" (Stats.ratio (float_of_int c.Inproc.invalidations) writes);
      m "core.render_us" "us" (layer "core.render");
      m "protocol.write_reply_us" "us" (layer "protocol.write_reply");
      m "protocol.read_reply_us" "us" (layer "protocol.read_reply");
      m "protocol.frames_per_reply" "count"
        (Stats.ratio (float_of_int c.Inproc.frames) (float_of_int c.Inproc.replies));
      m "protocol.bytes_per_reply" "bytes"
        (Stats.ratio (float_of_int c.Inproc.reply_bytes) (float_of_int c.Inproc.replies));
      m "server.request_us" "us" server_us;
      m "server.outside_us" "us" (Stats.mean (Stats.to_array (headline w traced)) -. server_us);
      m "db.add_clause_us" "us" (layer "db.add_clause");
      m "journal.append_us" "us" (layer "journal.append");
      m "journal.barrier_us" "us" (layer "journal.barrier");
      m "journal.records_per_fsync" "ratio"
        (Stats.ratio (grew "xsb_journal_records_appended_total") (grew "xsb_journal_fsyncs_total"));
      m "journal.bytes_per_user_byte" "ratio"
        (Stats.ratio (grew "xsb_journal_bytes_appended_total") (float_of_int user_bytes));
      m "repl.wait_synced_us" "us" (layer "repl.wait_synced");
      m "repl.shipped_bytes_per_record" "bytes"
        (Stats.ratio (grew "xsb_repl_shipped_bytes_total") (grew "xsb_journal_records_appended_total"));
      m "repl.standby_lag_bytes_max" "bytes" (float_of_int c.Inproc.lag_max);
      m "repl.degraded_ratio" "ratio"
        (Stats.ratio (float_of_int c.Inproc.degraded) (float_of_int c.Inproc.waits));
      m "gc.minor_words_per_op" "words" (per_op c.Inproc.minor_words);
      m "gc.major_collections_per_kop" "count" (1000.0 *. per_op (float_of_int c.Inproc.major_collections));
      m "unaccounted_us" "us" (head_plain -. List.fold_left (fun s l -> s +. layer l) 0.0 path);
      m "trace.overhead_us" "us" (head_traced -. head_plain);
    ]
  in
  (* the trace file: a summary line (self times and counts), then one
     line per span *)
  let file = Filename.concat workdir (Printf.sprintf "trace-%s-%d.jsonl" w.Workload.name seed) in
  let open Xsb.Json in
  let oc = open_out file in
  output_string oc
    (to_string
       (Obj
          [
            ("client_self_times", Trace.self_times_json client_tr);
            ("layer_self_times", Trace.self_times_json tr);
            ( "counts",
              Obj
                [
                  ("ops", Int c.Inproc.ops);
                  ("reads", Int c.Inproc.reads);
                  ("writes", Int c.Inproc.writes);
                  ("engine_subgoals", Int c.Inproc.subgoals);
                  ("engine_answers", Int c.Inproc.answers);
                  ("engine_dup_answers", Int c.Inproc.dup_answers);
                  ("engine_resumptions", Int c.Inproc.resumptions);
                  ("engine_repairs", Int c.Inproc.repairs);
                  ("engine_invalidations", Int c.Inproc.invalidations);
                  ("journal_records", Int c.Inproc.records);
                  ("journal_bytes", Int c.Inproc.journal_bytes);
                  ("journal_fsyncs", Int c.Inproc.fsyncs);
                  ("repl_shipped_bytes", Int c.Inproc.shipped);
                  ("gc_minor_words", Float c.Inproc.minor_words);
                  ("gc_major_collections", Int c.Inproc.major_collections);
                  ("server_request_mean_us", Float server_us);
                  ( "metrics_deltas",
                    Obj (List.filter_map (fun (series, d) -> if d <> 0.0 then Some (series, Float d) else None) deltas)
                  );
                ] );
          ]));
  output_char oc '\n';
  Trace.write_spans oc ~source:"client" client_tr;
  Trace.write_spans oc ~source:"layer" tr;
  close_out oc;
  print_endline
    (meta ~rounds ~seed ~seconds ~trace:true ~rev
       [
         ("trace_file", String file);
         ( "samples",
           Obj
             [
               ("read", Int (Stats.count plain.Load.reads));
               ("write", Int (Stats.count plain.Load.writes));
               ("inproc_ops", Int c.Inproc.ops);
             ] );
       ]);
  print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics)

let usage () =
  prerr_endline
    "usage: xsbperf.exe run --workload W --seed N --seconds S --trace 0|1 --server PATH --workdir DIR \
     [--rev REV]\n       xsbperf.exe selftest";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "selftest" ] -> (
      match Selftest.failures () with
      | [] -> Printf.printf "oracle self-test: %d cases pass\n" (List.length Selftest.cases)
      | bad ->
          List.iter (Printf.printf "oracle self-test FAILED: %s\n") bad;
          exit 1)
  | "run" :: opts -> (
      let rec kv acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            kv ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = kv [] opts in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let name = get "workload" and seed = int "seed" and seconds = int "seconds" in
      let trace = int "trace" = 1 in
      let rev = Option.value (List.assoc_opt "rev" opts) ~default:"unknown" in
      if not (List.mem name Workload.names) then usage ();
      Proc.server_exe := get "server";
      let workdir = get "workdir" in
      (match Selftest.failures () with
      | [] -> ()
      | bad ->
          List.iter (Printf.eprintf "oracle self-test FAILED: %s\n") bad;
          exit 3);
      (* a peer that vanishes must surface as EPIPE, not kill the run *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      at_exit Proc.reap_all;
      let rounds = Workload.make ~name ~seed ~seconds in
      (* an interrupted run still stops its servers *)
      List.iter
        (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 1)))
        [ Sys.sigterm; Sys.sigint ];
      try
        if trace then run_traced ~workdir ~seed ~seconds ~rev rounds
        else run_untraced ~workdir ~seed ~seconds ~rev rounds
      with e ->
        Proc.reap_all ();
        Printf.eprintf "xsbperf: %s (workload %s, seed %d)\n" (Printexc.to_string e) name seed;
        exit 1)
  | _ -> usage ()
