(** A blocking client for the query service — the library behind
    [bin/xsb_client.ml], the server tests and the benchmarks. One
    {!t} is one TCP connection, i.e. one private server-side session. *)

type t

val connect : ?host:string -> int -> t
(** [connect ?host port]. Raises [Unix.Unix_error] on refusal. *)

val close : t -> unit

type reply_error = { code : Protocol.err_code; message : string }

val ping : t -> (string, reply_error) result
(** ["pong"] on success. *)

val consult : ?fmt:Protocol.consult_fmt -> t -> string -> (string, reply_error) result
(** Load program text (or, with [~fmt], bulk facts / an object-file
    image) into the connection's session. *)

val assert_ : t -> string -> (string, reply_error) result
(** Assert one clause, e.g. ["edge(1,2)"] or ["p(X) :- q(X)"]. *)

val statistics : t -> (string, reply_error) result
(** The engine's [statistics/0] report for this session. *)

val abolish : ?pred:string -> t -> (string, reply_error) result
(** With no [?pred]: abolish the session's completed tables. With
    [~pred:"name/arity"]: remove that predicate (clauses, table/index
    registrations) from the database. *)

val sync : t -> (string, reply_error) result
(** Ask a durable server ([--data-dir]) to fsync its journal now;
    [BAD_REQUEST] from an in-memory server. *)

val metrics : t -> (string, reply_error) result
(** The server's Prometheus text exposition: request counters and
    latency histograms, table-space byte gauges, journal durability
    metrics. *)

val promote : t -> (string, reply_error) result
(** Promote a replication standby to a writable primary (failover);
    [BAD_REQUEST] from a server that is not a replica. *)

(** {1 Failover discovery (the ROLE op)} *)

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
(** {!Xsb_repl.Role.info}, re-exported so callers need not name the
    replication library. *)

val role : t -> (role_info, reply_error) result
(** Ask the node who it is. Never refused for being read-only — fenced
    and deposed nodes answer too, which is how a client finds its way
    to the new primary. *)

val role_payload : t -> (string, reply_error) result
(** The raw ROLE payload ({!Xsb_repl.Role.to_payload}'s "key: value"
    lines) — what [xsb_client --role] prints, greppable by scripts. *)

val probe_role : ?host:string -> int -> role_info option
(** Connect, ask {!role}, close — [None] on any failure (refused,
    unreachable, malformed). Safe against dead nodes by construction. *)

val probe_roles : (string * int) list -> ((string * int) * role_info) list
(** {!probe_role} every endpoint; the ones that answered, in order. *)

val discover_primary : (string * int) list -> ((string * int) * role_info) option
(** {!probe_roles}, then {!Xsb_repl.Role.writable_primary}: the
    writable primary with the highest epoch, with the endpoint it
    answered on — the node a failed-over client should re-dial. [None]
    when no writable primary answered (election still in progress:
    retry). *)

type query_outcome =
  | Rows of { rows : string list; truncated : bool }
      (** rendered solutions, in answer-arrival order; [truncated] when
          the row limit stopped the evaluation *)
  | Query_timeout of string list
      (** deadline or step budget exceeded; carries the rows streamed
          before the [TIMEOUT] terminator *)
  | Query_error of reply_error

val query : ?limit:int -> ?timeout_ms:int -> ?max_steps:int -> t -> string -> query_outcome
(** Run a goal, e.g. ["path(1,X)"]. Raises {!Protocol.Bad_frame} /
    [End_of_file] only on a broken connection. *)

(** {1 Bounded retry}

    Exponential backoff with full jitter: before attempt [k+1] the
    client sleeps a uniform-random duration in
    [\[0, min (max_backoff_ms, backoff_ms * 2{^k})\]] milliseconds.
    Only {e idempotent} requests ([PING], [QUERY], [STATISTICS],
    [METRICS]) and the initial connect are ever retried — re-sending a
    mutation after an ambiguous failure could apply it twice. *)

type retry = {
  retries : int;  (** additional attempts after the first *)
  backoff_ms : float;
  max_backoff_ms : float;
  max_elapsed_ms : float;
      (** total-elapsed budget across attempts, measured on [clock];
          once spent, the next retryable failure is final. 0 = no cap *)
  rand : float -> float;  (** jitter source; [Random.float] in production *)
  sleep : float -> unit;  (** seconds; injectable for deterministic tests *)
  clock : unit -> float;
      (** monotonic seconds ({!Xsb.Mclock.now} in production — an NTP
          step must not distort the elapsed budget); injectable *)
}

val default_retry : retry
(** 3 retries, 100 ms base, 5 s cap, no elapsed cap, real randomness,
    sleeping and the monotonic clock. *)

val retry :
  ?retries:int ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  ?max_elapsed_ms:float ->
  ?rand:(float -> float) ->
  ?sleep:(float -> unit) ->
  ?clock:(unit -> float) ->
  unit ->
  retry
(** {!default_retry} with overrides. *)

val with_retry : retry -> (unit -> [ `Ok of 'a | `Retry of 'e ]) -> ('a, 'e) result
(** Run an attempt thunk until it returns [`Ok], backing off after each
    [`Retry]; [Error] carries the last retryable failure once the
    budget is spent. *)

val idempotent : Protocol.op -> bool
(** Whether an op is safe to re-send
    ([PING]/[QUERY]/[STATISTICS]/[METRICS]/[ROLE]). *)

val connect_with_retry : ?retry:retry -> ?host:string -> int -> (t, string) result
(** {!connect}, retrying [ECONNREFUSED] (a server still coming up). *)

val ping_retry : ?retry:retry -> ?follow_primary:bool -> t -> (string, reply_error) result
(** {!ping}, retrying [OVERLOADED] refusals. With [~follow_primary:true]
    a [READONLY] refusal is also retried: it clears when the standby is
    promoted (or a degraded primary repaired), so a caller waiting out a
    failover keeps asking instead of giving up. *)

val statistics_retry : ?retry:retry -> ?follow_primary:bool -> t -> (string, reply_error) result
val metrics_retry : ?retry:retry -> ?follow_primary:bool -> t -> (string, reply_error) result

val query_retry :
  ?retry:retry ->
  ?follow_primary:bool ->
  ?limit:int ->
  ?timeout_ms:int ->
  ?max_steps:int ->
  t ->
  string ->
  query_outcome
(** {!query}, retrying [OVERLOADED] refusals (the queue was full; the
    query never started executing, so re-sending is safe) — and, with
    [~follow_primary:true], [READONLY] ones. *)
