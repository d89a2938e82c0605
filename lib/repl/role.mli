(** A node's replication role, the ROLE wire payload that carries it,
    and every failover and discovery decision made from it.

    Pure by construction: nothing here touches a socket, a thread or a
    clock. The server builds its own {!info}, probes its peers' ROLE,
    asks {!on_silence} what to do and carries the answer out; a client
    probes its endpoints and asks {!writable_primary} where to dial
    (DESIGN.md §14). *)

type kind = Primary_role | Standby_role

type endpoint = string * int
(** A client endpoint, [host:port]. *)

type info = {
  role : kind;
  epoch : int64;  (** failover fencing epoch of the node's timeline *)
  generation : int64;  (** journal position: durable (primary) or applied (standby) *)
  offset : int;
  repl_port : int option;  (** the replication feed, when serving one *)
  priority : int;  (** [--promote-priority]; lower promotes first *)
  read_only : bool;
  peers : endpoint list;  (** the node's [--peers] topology list *)
  fatal : string option;
      (** standby only: why its applier parked (e.g. fenced after a
          split brain); a primary's is not rendered *)
}

val compare_position : int64 * int -> int64 * int -> int
(** The total order on journal positions [(generation, offset)]. *)

val endpoint_of_string : string -> (endpoint, string) result
(** Parse [HOST:PORT] (port in 1..65535); the error is a one-line
    message naming the bad input. *)

val endpoint_to_string : endpoint -> string

val to_payload : info -> string
(** The ROLE payload: one ["key: value"] line per field, in a fixed
    order — role, epoch, generation, offset, [fatal] (standbys only,
    ["-"] when healthy), repl_port (["-"] when none), priority,
    read_only ([yes]/[no]), peers (comma-separated). *)

val of_payload : string -> info
(** Inverse of {!to_payload}. Unknown keys are ignored, missing ones
    default (zero, [None], standby, writable). *)

val silence_threshold : timeout_ms:int -> priority:int -> float
(** Seconds of primary silence before a standby's failover monitor
    acts: the timeout plus 0.5 s per priority step, so replicas don't
    race each other to promote. *)

val writable_primary : (endpoint * info) list -> (endpoint * info) option
(** Among probe results, the writable primary on the highest epoch
    (the first probed wins a tie) — the node a client should dial. *)

type action =
  | Retarget of endpoint * int
      (** a writable primary on a current epoch answered: the old
          address is stale, not the primary — follow its replication
          feed (the [int]) instead of promoting *)
  | Defer
      (** someone else should act: that primary advertises no feed, or
          a peer standby is ahead of us (newer epoch, further position,
          or tied with a lower priority number) *)
  | Promote  (** nobody better answered: self-promote *)

val on_silence : self:info -> (endpoint * info) list -> action
(** The failover decision of a standby whose primary has gone silent,
    given its own state and its peers' probe results. Primaries on an
    epoch below [self]'s are ignored. *)
