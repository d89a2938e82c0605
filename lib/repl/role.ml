(* A node's replication role and the failover decisions made from it.
   Pure: no sockets, threads or clocks — the server probes, asks, and
   carries out the answer. See role.mli and DESIGN.md §14. *)

type kind = Primary_role | Standby_role
type endpoint = string * int

type info = {
  role : kind;
  epoch : int64;
  generation : int64;
  offset : int;
  repl_port : int option;
  priority : int;
  read_only : bool;
  peers : endpoint list;
  fatal : string option;
}

(* (gen, off) ordering: generations are totally ordered and offsets
   within one generation are byte offsets of the same file bytes *)
let compare_position (g1, o1) (g2, o2) =
  match Int64.compare g1 g2 with 0 -> Int.compare o1 o2 | c -> c

let endpoint_to_string (host, port) = Printf.sprintf "%s:%d" host port

let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some p when p > 0 && p < 65536 -> Ok (host, p)
      | _ -> Error (Printf.sprintf "bad port in %S (expected HOST:PORT)" s))
  | _ -> Error (Printf.sprintf "bad address %S (expected HOST:PORT)" s)

(* --- the ROLE payload: one "key: value" line per field --- *)

let to_payload i =
  let b = Buffer.create 128 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "role: %s" (match i.role with Primary_role -> "primary" | Standby_role -> "standby");
  line "epoch: %Ld" i.epoch;
  line "generation: %Ld" i.generation;
  line "offset: %d" i.offset;
  if i.role = Standby_role then line "fatal: %s" (Option.value i.fatal ~default:"-");
  line "repl_port: %s" (match i.repl_port with Some p -> string_of_int p | None -> "-");
  line "priority: %d" i.priority;
  line "read_only: %s" (if i.read_only then "yes" else "no");
  line "peers: %s" (String.concat "," (List.map endpoint_to_string i.peers));
  Buffer.contents b

(* unknown keys are ignored so the payload can grow without breaking
   old clients *)
let of_payload payload =
  let kv =
    String.split_on_char '\n' payload
    |> List.filter_map (fun line ->
           match String.index_opt line ':' with
           | None -> None
           | Some i ->
               let k = String.sub line 0 i in
               let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
               Some (k, v))
  in
  let get k = List.assoc_opt k kv in
  let int64_of k = Option.value (Option.bind (get k) Int64.of_string_opt) ~default:0L in
  let int_of k = Option.value (Option.bind (get k) int_of_string_opt) ~default:0 in
  {
    role = (match get "role" with Some "primary" -> Primary_role | _ -> Standby_role);
    epoch = int64_of "epoch";
    generation = int64_of "generation";
    offset = int_of "offset";
    repl_port =
      (match get "repl_port" with Some "-" | None -> None | Some v -> int_of_string_opt v);
    priority = int_of "priority";
    read_only = get "read_only" = Some "yes";
    peers =
      (match get "peers" with
      | Some v ->
          String.split_on_char ',' v
          |> List.filter_map (fun s -> Result.to_option (endpoint_of_string s))
      | None -> []);
    fatal = (match get "fatal" with Some "-" | None -> None | Some m -> Some m);
  }

(* --- decisions --- *)

let silence_threshold ~timeout_ms ~priority =
  (float_of_int timeout_ms /. 1000.0) +. (0.5 *. float_of_int priority)

let writable_primary probes =
  List.fold_left
    (fun best ((_, i) as cand) ->
      if i.role <> Primary_role || i.read_only then best
      else
        match best with
        | Some (_, b) when Int64.compare b.epoch i.epoch >= 0 -> best
        | _ -> Some cand)
    None probes

type action = Retarget of endpoint * int | Defer | Promote

let on_silence ~self probes =
  let current (_, i) = Int64.compare i.epoch self.epoch >= 0 in
  match writable_primary (List.filter current probes) with
  | Some (ep, { repl_port = Some rp; _ }) -> Retarget (ep, rp)
  | Some (_, { repl_port = None; _ }) -> Defer
  | None ->
      let ahead (_, i) =
        i.role = Standby_role
        && (Int64.compare i.epoch self.epoch > 0
           ||
           let c = compare_position (i.generation, i.offset) (self.generation, self.offset) in
           c > 0 || (c = 0 && i.priority < self.priority))
      in
      if List.exists ahead probes then Defer else Promote
