(* The system under test: the server process(es) for one workload, set
   up the way an operator would (start, consult, warm the tables,
   bootstrap the standby), plus the load generator's connections. *)

open Xsb_server

type t = {
  primary : Proc.t;
  standby : Proc.t option;
  conns : Client.t array;
  standby_conns : Client.t array;  (** one per client, for {!on_standby} *)
  primary_dir : string option;
}

exception Setup_failed of string

let ok what = function
  | Ok _ -> ()
  | Error e -> raise (Setup_failed (what ^ ": " ^ e.Client.message))

let query_rows conn goal =
  match Client.query conn goal with
  | Client.Rows { rows; _ } -> rows
  | Client.Query_timeout _ -> raise (Setup_failed (goal ^ ": timeout"))
  | Client.Query_error e -> raise (Setup_failed (goal ^ ": " ^ e.Client.message))

let connect port =
  match Client.connect_with_retry port with
  | Ok c -> c
  | Error msg -> raise (Setup_failed ("connect: " ^ msg))

(* the journal position a node reports through ROLE: durable on a
   primary, applied on a standby *)
let position c =
  match Client.role c with
  | Ok r -> (r.Client.generation, r.Client.offset)
  | Error e -> raise (Setup_failed ("ROLE: " ^ e.Client.message))

(* polls ROLE back to back over one connection per node, so set-up time
   is not rounded up to a poll interval *)
let await_caught_up ~primary ~standby =
  let p = connect primary.Proc.port and s = connect standby.Proc.port in
  Fun.protect
    ~finally:(fun () ->
      Client.close p;
      Client.close s)
    (fun () ->
      let deadline = Xsb.Mclock.now () +. 30.0 in
      let rec go () =
        if position s = position p then ()
        else if Xsb.Mclock.now () > deadline then raise (Setup_failed "standby never caught up")
        else go ()
      in
      go ())

(* every durable server runs the same journal sync policy as the
   in-process replay of the traced run *)
let durable_args dir =
  [ "--data-dir"; dir; "--sync"; Xsb.Journal.sync_policy_to_string Inproc.sync_policy ]

let start ~workdir (w : Workload.t) =
  let dir name = Proc.fresh_dir (Filename.concat workdir name) in
  let primary_dir = if w.Workload.durable then Some (dir "primary") else None in
  let args =
    match primary_dir with
    | None -> []
    | Some d ->
        durable_args d
        @ if w.Workload.standby then [ "--repl-port"; "0"; "--sync-standby"; "1" ] else []
  in
  let primary = Proc.spawn ~want_repl:w.Workload.standby args in
  let standby =
    match primary.Proc.repl_port with
    | Some rp ->
        let s =
          Proc.spawn (durable_args (dir "standby") @ [ "--replica-of"; Printf.sprintf "127.0.0.1:%d" rp ])
        in
        (* bootstrapped before the first semi-sync write, so no write
           waits out the sync timeout *)
        await_caught_up ~primary ~standby:s;
        Some s
    | None -> None
  in
  let conns = Array.init Workload.clients (fun _ -> connect primary.Proc.port) in
  (* a durable server has one shared session; otherwise each
     connection is its own session and is loaded and warmed alone *)
  let sessions = if w.Workload.durable then [ conns.(0) ] else Array.to_list conns in
  List.iter
    (fun c ->
      ok "CONSULT" (Client.consult c w.Workload.program);
      List.iter (fun g -> ignore (query_rows c g)) w.Workload.warm)
    sessions;
  Option.iter (fun s -> await_caught_up ~primary ~standby:s) standby;
  let standby_conns =
    match standby with
    | Some s -> Array.init Workload.clients (fun _ -> connect s.Proc.port)
    | None -> [||]
  in
  { primary; standby; conns; standby_conns; primary_dir }

(* whether client [k]'s acked [clause] is already visible on the
   standby: under semi-sync it must be, the moment its ack arrives *)
let on_standby t k clause =
  match Client.query t.standby_conns.(k) clause with
  | Client.Rows { rows = [ "true" ]; _ } -> true
  | _ -> false

let stop t =
  Array.iter Client.close t.conns;
  Array.iter Client.close t.standby_conns;
  Option.iter Proc.stop t.standby;
  Proc.stop t.primary

let peak_rss_mb t =
  Proc.peak_rss_mb t.primary +. Option.fold ~none:0.0 ~some:Proc.peak_rss_mb t.standby

(* the durability contract, checked from outside: every acknowledged
   write (and every consulted fact) is present on [port], and nothing
   was invented. Returns the number of missing or phantom facts. *)
let check_facts ~port (w : Workload.t) ~acked =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let have = Hashtbl.create 4096 in
      List.iter (fun r -> Hashtbl.replace have r ()) (query_rows c w.Workload.check_goal);
      let must = List.map Workload.fact_row (w.Workload.initial @ acked) in
      let may = Hashtbl.create 4096 in
      List.iter
        (fun cl -> Hashtbl.replace may (Workload.fact_row cl) ())
        (w.Workload.initial @ Workload.issued_writes w);
      let missing = List.filter (fun r -> not (Hashtbl.mem have r)) must in
      let phantom = Hashtbl.fold (fun r () n -> if Hashtbl.mem may r then n else n + 1) have 0 in
      (List.length missing + phantom, missing))

(* after the load: durable-mixed is killed with SIGKILL and restarted
   on its data dir (the OS cache survives, so this checks that acked
   writes were journaled, not that the device flushed); under semi-sync
   the standby must already hold every acked write *)
let post_check t (w : Workload.t) ~acked =
  match (t.standby, t.primary_dir) with
  | Some s, _ -> check_facts ~port:s.Proc.port w ~acked
  | None, Some d ->
      Array.iter Client.close t.conns;
      Proc.kill9 t.primary;
      let p = Proc.spawn (durable_args d) in
      Fun.protect ~finally:(fun () -> Proc.stop p) (fun () -> check_facts ~port:p.Proc.port w ~acked)
  | None, None -> (0, [])

(* one METRICS scrape of the primary: every sample line as
   (series, value), where the series is the text before the value, e.g.
   [xsb_request_duration_seconds_sum{op="QUERY"}] *)
let scrape t =
  let c = connect t.primary.Proc.port in
  let text =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match Client.metrics c with
        | Ok s -> s
        | Error e -> raise (Setup_failed ("METRICS: " ^ e.Client.message)))
  in
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.rindex_opt line ' ' with
         | Some i when line <> "" && line.[0] <> '#' -> (
             match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
             | Some v -> Some (String.sub line 0 i, v)
             | None -> None)
         | _ -> None)

(* how much each series grew between two scrapes *)
let deltas ~before ~after =
  List.map (fun (series, v) -> (series, v -. Option.value (List.assoc_opt series before) ~default:0.0)) after

(* the sum of several rounds' deltas *)
let add_deltas a b =
  List.fold_left
    (fun acc (series, v) ->
      (series, v +. Option.value (List.assoc_opt series acc) ~default:0.0) :: List.remove_assoc series acc)
    a b

let grew deltas series = Option.value (List.assoc_opt series deltas) ~default:0.0

(* the mean server-side duration of one op, in microseconds: exact,
   from the request histogram's sum and count *)
let request_mean_us deltas op =
  let series suffix = Printf.sprintf "xsb_request_duration_seconds_%s{op=\"%s\"}" suffix op in
  Stats.ratio (grew deltas (series "sum")) (grew deltas (series "count")) *. 1e6
