type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?(host = "127.0.0.1") port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type reply_error = { code : Protocol.err_code; message : string }

(* ops with a single-frame reply *)
let simple t req =
  Protocol.write_request t.oc req;
  match Protocol.read_reply t.ic with
  | Protocol.Ok_ payload -> Ok payload
  | Protocol.Err (code, message) -> Error { code; message }
  | Protocol.Answer _ | Protocol.Done _ ->
      raise (Protocol.Bad_frame "unexpected answer frame outside a query")

let ping t = simple t (Protocol.request Protocol.Ping "")
let consult ?fmt t text = simple t (Protocol.request ?fmt Protocol.Consult text)
let assert_ t clause = simple t (Protocol.request Protocol.Assert clause)
let statistics t = simple t (Protocol.request Protocol.Statistics "")
let abolish ?(pred = "") t = simple t (Protocol.request Protocol.Abolish pred)
let sync t = simple t (Protocol.request Protocol.Sync "")
let metrics t = simple t (Protocol.request Protocol.Metrics "")
let promote t = simple t (Protocol.request Protocol.Promote "")

(* --- failover discovery (the ROLE op) --- *)

type role = Xsb_repl.Role.kind = Primary_role | Standby_role

type role_info = Xsb_repl.Role.info = {
  role : role;
  epoch : int64;
  generation : int64;
  offset : int;
  repl_port : int option;
  priority : int;
  read_only : bool;
  peers : (string * int) list;
  fatal : string option;
}

let role_payload t = simple t (Protocol.request Protocol.Role "")
let role t = Result.map Xsb_repl.Role.of_payload (role_payload t)

(* connect, ask ROLE, close — [None] on any failure. The failover
   monitor and endpoint discovery probe dead nodes constantly; a probe
   must never raise. *)
let probe_role ?host port =
  match connect ?host port with
  | exception _ -> None
  | t ->
      Fun.protect ~finally:(fun () -> close t) @@ fun () ->
      (match role t with
      | Ok info -> Some info
      | Error _ | (exception _) -> None)

let probe_roles endpoints =
  List.filter_map
    (fun (host, port) -> Option.map (fun info -> ((host, port), info)) (probe_role ~host port))
    endpoints

let discover_primary endpoints = Xsb_repl.Role.writable_primary (probe_roles endpoints)

(* --- bounded retry with exponential backoff and full jitter --- *)

type retry = {
  retries : int;
  backoff_ms : float;
  max_backoff_ms : float;
  max_elapsed_ms : float;
  rand : float -> float;
  sleep : float -> unit;
  clock : unit -> float;
}

let default_retry =
  {
    retries = 3;
    backoff_ms = 100.0;
    max_backoff_ms = 5_000.0;
    max_elapsed_ms = 0.0;
    rand = Random.float;
    sleep = Unix.sleepf;
    (* the monotonic clock: an NTP step while we back off must not
       stretch or collapse the elapsed-time budget *)
    clock = Xsb.Mclock.now;
  }

let retry ?(retries = default_retry.retries) ?(backoff_ms = default_retry.backoff_ms)
    ?(max_backoff_ms = default_retry.max_backoff_ms)
    ?(max_elapsed_ms = default_retry.max_elapsed_ms) ?(rand = default_retry.rand)
    ?(sleep = default_retry.sleep) ?(clock = default_retry.clock) () =
  { retries; backoff_ms; max_backoff_ms; max_elapsed_ms; rand; sleep; clock }

let with_retry r f =
  let started = r.clock () in
  let budget_spent () =
    r.max_elapsed_ms > 0.0 && (r.clock () -. started) *. 1000.0 >= r.max_elapsed_ms
  in
  let rec go attempt =
    match f () with
    | `Ok v -> Ok v
    | `Retry e ->
        if attempt >= r.retries || budget_spent () then Error e
        else begin
          (* full jitter: uniform in [0, min(max, base * 2^attempt)] *)
          let cap = Float.min r.max_backoff_ms (r.backoff_ms *. (2.0 ** float_of_int attempt)) in
          let delay_ms = if cap > 0.0 then r.rand cap else 0.0 in
          if delay_ms > 0.0 then r.sleep (delay_ms /. 1000.0);
          go (attempt + 1)
        end
  in
  go 0

(* only requests that are safe to re-send after an ambiguous failure:
   re-running a mutation could apply it twice *)
let idempotent = function
  | Protocol.Ping | Protocol.Query | Protocol.Statistics | Protocol.Metrics | Protocol.Role ->
      true
  | Protocol.Consult | Protocol.Assert | Protocol.Abolish | Protocol.Sync | Protocol.Promote ->
      false

let connect_with_retry ?(retry = default_retry) ?host port =
  with_retry retry (fun () ->
      match connect ?host port with
      | t -> `Ok t
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
          `Retry (Printf.sprintf "connection refused on port %d" port))

(* [READONLY] is only retryable on request: it clears when a standby is
   promoted (or a degraded primary is repaired), which a caller that
   "follows the primary" is waiting out. Only idempotent reads go
   through these wrappers, so re-sending is always safe. *)
let retryable ~follow_primary code =
  match code with
  | Protocol.Overloaded -> true
  | Protocol.Readonly -> follow_primary
  | _ -> false

let retry_transient ~follow_primary retry run =
  match
    with_retry retry (fun () ->
        match run () with
        | Error ({ code; _ } as e) when retryable ~follow_primary code -> `Retry e
        | r -> `Ok r)
  with
  | Ok r -> r
  | Error e -> Error e

let ping_retry ?(retry = default_retry) ?(follow_primary = false) t =
  retry_transient ~follow_primary retry (fun () -> ping t)

let statistics_retry ?(retry = default_retry) ?(follow_primary = false) t =
  retry_transient ~follow_primary retry (fun () -> statistics t)

let metrics_retry ?(retry = default_retry) ?(follow_primary = false) t =
  retry_transient ~follow_primary retry (fun () -> metrics t)

type query_outcome =
  | Rows of { rows : string list; truncated : bool }
  | Query_timeout of string list
  | Query_error of reply_error

let query ?limit ?timeout_ms ?max_steps t goal =
  Protocol.write_request t.oc (Protocol.request ?limit ?timeout_ms ?max_steps Protocol.Query goal);
  let rec collect acc =
    match Protocol.read_reply t.ic with
    | Protocol.Answer row -> collect (row :: acc)
    | Protocol.Done { more; _ } -> Rows { rows = List.rev acc; truncated = more }
    | Protocol.Err (Protocol.Timeout, _) -> Query_timeout (List.rev acc)
    | Protocol.Err (code, message) -> Query_error { code; message }
    | Protocol.Ok_ _ -> raise (Protocol.Bad_frame "unexpected OK frame inside a query")
  in
  collect []

let query_retry ?(retry = default_retry) ?(follow_primary = false) ?limit ?timeout_ms ?max_steps t
    goal =
  match
    with_retry retry (fun () ->
        match query ?limit ?timeout_ms ?max_steps t goal with
        | Query_error ({ code; _ } as e) when retryable ~follow_primary code -> `Retry e
        | outcome -> `Ok outcome)
  with
  | Ok outcome -> outcome
  | Error e -> Query_error e
