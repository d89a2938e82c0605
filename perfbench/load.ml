(* The closed-loop load generator: one thread and one connection per
   client, each sending its next operation only after the reply to the
   previous one has arrived. Every reply is judged against the
   workload's oracle; a refused, failed or wrong reply counts as failed.
   Latency is the client-side round trip on the monotonic clock. *)

open Xsb_server

type outcome = {
  reads : Stats.samples;  (** one read op: [ABOLISH] (cold-eval) then [QUERY] *)
  writes : Stats.samples;  (** one [ASSERT] until its ack *)
  rates : Stats.samples;  (** ops/s in each throughput window *)
  mutable attempted : int;
  mutable failed : int;
  mutable acked : string list;  (** clauses whose ASSERT was acknowledged *)
  mutable problems : string list;  (** the first few failures, for the log *)
}

let outcome () =
  {
    reads = Stats.samples ();
    writes = Stats.samples ();
    rates = Stats.samples ();
    attempted = 0;
    failed = 0;
    acked = [];
    problems = [];
  }

(* fold [o] into [into] *)
let merge into o =
  let add dst src = Array.iter (Stats.add dst) (Stats.to_array src) in
  add into.reads o.reads;
  add into.writes o.writes;
  add into.rates o.rates;
  into.attempted <- into.attempted + o.attempted;
  into.failed <- into.failed + o.failed;
  into.acked <- List.rev_append o.acked into.acked;
  into.problems <- into.problems @ o.problems

let note o msg = if List.length o.problems < 10 then o.problems <- msg :: o.problems

let describe = function
  | Client.Rows { rows; _ } -> Printf.sprintf "%d rows" (List.length rows)
  | Client.Query_timeout _ -> "timeout"
  | Client.Query_error e -> Protocol.err_code_name e.Client.code ^ ": " ^ e.Client.message

(* run one op; [Ok ()] when the reply is the oracle's, [Error why]
   otherwise *)
let run_op ?tracer ~rid ~parent conn (op : Workload.op) =
  let span name f = Trace.maybe tracer ~rid ~parent name (fun _ -> f ()) in
  match op with
  | Workload.Read { abolish; goal; expect } -> (
      let abolished =
        if abolish then
          match span "client.abolish" (fun () -> Client.abolish conn) with
          | Ok _ -> Ok ()
          | Error e -> Error ("ABOLISH " ^ e.Client.message)
        else Ok ()
      in
      match abolished with
      | Error _ as e -> e
      | Ok () -> (
          match span "client.query" (fun () -> Client.query conn goal) with
          | Client.Rows { rows; truncated = false } when List.sort compare rows = expect -> Ok ()
          | reply -> Error (Printf.sprintf "%s: got %s, expected %d rows" goal (describe reply) (List.length expect))))
  | Workload.Write { clause } -> (
      match span "client.assert" (fun () -> Client.assert_ conn clause) with
      | Ok _ -> Ok ()
      | Error e -> Error (Printf.sprintf "ASSERT %s: %s" clause e.Client.message))

(* throughput is taken over equal time windows of the span in which
   every client was sending; the run reports the median window, so a
   burst of outside load moves one window, not the whole figure *)
let windows = 20

let add_rates o ends =
  let busy = Array.fold_left (fun m e -> Float.min m (Array.fold_left Float.max 0.0 e)) infinity ends in
  let width = busy /. float_of_int windows in
  let counts = Array.make windows 0 in
  Array.iter
    (Array.iter (fun t ->
         let i = int_of_float (t /. width) in
         if i < windows then counts.(i) <- counts.(i) + 1))
    ends;
  Array.iter (fun n -> Stats.add o.rates (float_of_int n /. width)) counts

(* drive every client's op sequence to completion; request ids are
   unique across clients and rounds. [last_ack k clause], when given,
   is asked right after client [k]'s final acked write, outside the
   timing, whether that write is already where its ack promised *)
let run ?tracer ?last_ack ~seed ~round (w : Workload.t) conns =
  let start = Xsb.Mclock.now () in
  let per_client =
    Array.mapi
      (fun k ops ->
        let o = outcome () in
        let ends = Array.make (Array.length ops) 0.0 in
        let conn = conns.(k) in
        let body () =
          Array.iteri
            (fun i op ->
              let rid = (round * 100_000_000) + (k * 10_000_000) + i + 1 in
              let t0 = Xsb.Mclock.now () in
              let r =
                try Trace.maybe tracer ~rid "client.op" (fun parent -> run_op ?tracer ~rid ~parent conn op)
                with e -> Error (Printexc.to_string e)
              in
              let t1 = Xsb.Mclock.now () in
              let us = (t1 -. t0) *. 1e6 in
              ends.(i) <- t1 -. start;
              o.attempted <- o.attempted + 1;
              match r with
              | Ok () -> (
                  match op with
                  | Workload.Read _ -> Stats.add o.reads us
                  | Workload.Write { clause } ->
                      Stats.add o.writes us;
                      o.acked <- clause :: o.acked)
              | Error msg ->
                  o.failed <- o.failed + 1;
                  note o (Printf.sprintf "seed %d round %d client %d op %d: %s" seed round k i msg))
            ops;
          match (last_ack, o.acked) with
          | Some check, clause :: _ when not (try check k clause with _ -> false) ->
              o.failed <- o.failed + 1;
              note o (Printf.sprintf "seed %d round %d client %d: acked %s not on the standby" seed round k clause)
          | _ -> ()
        in
        (o, ends, body))
      w.Workload.clients
  in
  let threads = Array.map (fun (_, _, body) -> Thread.create body ()) per_client in
  Array.iter Thread.join threads;
  let total = outcome () in
  Array.iter (fun (o, _, _) -> merge total { o with problems = List.rev o.problems }) per_client;
  add_rates total (Array.map (fun (_, ends, _) -> ends) per_client);
  total
