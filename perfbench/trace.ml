(* Spans recorded by the benchmark around its calls into each layer.

   A span has a name, a start and an end (monotonic seconds), the span
   that caused it, and the request id shared by every span of one
   operation. Spans stay in memory and are written out once, when the
   run ends. A recorder is shared by threads, so recording takes a
   lock; it is only ever created for the traced run. *)

type span = { id : int; parent : int; name : string; rid : int; t0 : float; t1 : float }

type t = { mutable spans : span list; mutable next : int; m : Mutex.t }

let create () = { spans = []; next = 1; m = Mutex.create () }
let now = Xsb.Mclock.now

let fresh_id t =
  Mutex.protect t.m (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let record t s = Mutex.protect t.m (fun () -> t.spans <- s :: t.spans)

(* [span t ~rid ~parent name f] runs [f id] inside a span whose id
   children can name as their parent *)
let span t ~rid ?(parent = 0) name f =
  let id = fresh_id t in
  let t0 = now () in
  let finish () = record t { id; parent; name; rid; t0; t1 = now () } in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* the optional form the load generator uses: untraced runs pay one
   match per call *)
let maybe t ~rid ?parent name f =
  match t with None -> f 0 | Some t -> span t ~rid ?parent name f

let spans t = List.rev t.spans

(* per layer: the time each operation spent in spans of that name
   (summed within the operation), in microseconds *)
let per_op_us t name =
  let by_rid = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.name = name then
        let prev = Option.value (Hashtbl.find_opt by_rid s.rid) ~default:0.0 in
        Hashtbl.replace by_rid s.rid (prev +. ((s.t1 -. s.t0) *. 1e6)))
    t.spans;
  Array.of_seq (Hashtbl.to_seq_values by_rid)

(* self time of every span: its duration minus the time its children
   cover (children of one span never overlap: each layer call returns
   before the next begins) *)
let self_times t =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    t.spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let n, total, selfs = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0.0, []) in
      Hashtbl.replace acc s.name (n + 1, total +. (s.t1 -. s.t0), (self *. 1e6) :: selfs))
    t.spans;
  Hashtbl.fold (fun name (n, total, selfs) l -> (name, n, total, selfs) :: l) acc []
  |> List.sort compare

(* one JSON line per span, times in microseconds from the first span *)
let write_spans oc ~source t =
  let open Xsb.Json in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity t.spans in
  List.iter
    (fun s ->
      output_string oc
        (to_string
           (Obj
              [
                ("source", String source);
                ("id", Int s.id);
                ("parent", Int s.parent);
                ("name", String s.name);
                ("rid", Int s.rid);
                ("start_us", Float ((s.t0 -. base) *. 1e6));
                ("end_us", Float ((s.t1 -. base) *. 1e6));
              ]));
      output_char oc '\n')
    (spans t)

let self_times_json t =
  let open Xsb.Json in
  Obj
    (List.map
       (fun (name, n, total, selfs) ->
         ( name,
           Obj
             [
               ("count", Int n);
               ("total_us", Float (total *. 1e6));
               ("self_p50_us", Float (Stats.median_list selfs));
               ("self_total_us", Float (List.fold_left ( +. ) 0.0 selfs));
             ] ))
       (self_times t))
