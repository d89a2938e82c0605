open Xsb_term

(* Pre-order token string of a canonical term. Variables are tokens too
   (they are canonically numbered), so each answer has exactly one
   terminal node in a trie built over these strings. *)
type tok = TVar of int | TAtom of string | TInt of int | TFloat of float | TStruct of string * int

module Tok_tbl = Hashtbl.Make (struct
  type t = tok

  let equal (a : t) (b : t) = a = b
  let hash (t : t) = Hashtbl.hash t
end)

let tokens answer =
  let acc = ref [] in
  let rec go = function
    | Canon.CVar n -> acc := TVar n :: !acc
    | Canon.CAtom a -> acc := TAtom a :: !acc
    | Canon.CInt i -> acc := TInt i :: !acc
    | Canon.CFloat x -> acc := TFloat x :: !acc
    | Canon.CStruct (f, args) ->
        acc := TStruct (f, Array.length args) :: !acc;
        Array.iter go args
  in
  go answer;
  List.rev !acc

(* arity of the subterm a token opens: how many further subterms must be
   consumed before this one is complete *)
let opens = function TVar _ | TAtom _ | TInt _ | TFloat _ -> 0 | TStruct (_, n) -> n

module Index = struct
  (* The trie behind the SLG machine's answer tables: each
     terminal keeps a payload per answer *clause* (the same template can
     be stored several times, e.g. under different delay lists), and the
     trie supports retrieval by the bound-argument skeleton of a call:
     [lookup] walks only the branches whose token prefix can unify with
     the skeleton, so a bound call retrieves candidates without scanning
     the whole table (paper §4.5). *)
  type 'a node = {
    mutable entries : (int * 'a) list;  (* in reverse insertion order *)
    mutable latest : int;
        (* time stamp: the largest insertion position anywhere in this
           subtree, [-1] when empty.  Lets a stamped retrieval skip whole
           branches that hold nothing newer than the consumer's last
           poll. *)
    children : 'a node Tok_tbl.t;
  }

  type 'a t = { root : 'a node; order : 'a Vec.t }

  let fresh_node () = { entries = []; latest = -1; children = Tok_tbl.create 4 }

  let create ?size_hint:_ () = { root = fresh_node (); order = Vec.create () }

  let size t = Vec.length t.order
  let get t i = Vec.get t.order i
  let iter f t = Vec.iter f t.order
  let fold_left f acc t = Vec.fold_left f acc t.order

  let add t key payload =
    let pos = Vec.length t.order in
    let rec go node toks =
      node.latest <- pos;
      match toks with
      | [] -> node
      | tok :: rest ->
          let child =
            match Tok_tbl.find_opt node.children tok with
            | Some child -> child
            | None ->
                let child = fresh_node () in
                Tok_tbl.add node.children tok child;
                child
          in
          go child rest
    in
    let node = go t.root (tokens key) in
    node.entries <- (pos, payload) :: node.entries;
    Vec.push t.order payload;
    pos

  let find t key =
    let rec go node = function
      | [] -> List.rev_map snd node.entries
      | tok :: rest -> (
          match Tok_tbl.find_opt node.children tok with
          | Some child -> go child rest
          | None -> [])
    in
    go t.root (tokens key)

  (* all nodes reachable from [node] by consuming exactly [k] whole
     stored subterms (used when the skeleton has a variable); branches
     whose time stamp is older than [from] are pruned *)
  let rec skip ~from node k acc =
    if k = 0 then if node.latest >= from then node :: acc else acc
    else
      Tok_tbl.fold
        (fun tok child acc ->
          if child.latest < from then acc else skip ~from child (k - 1 + opens tok) acc)
        node.children acc

  let lookup_from ~from t skeleton =
    let acc = ref [] in
    let rec go node agenda =
      if node.latest >= from then
        match agenda with
        | [] -> List.iter (fun (i, x) -> if i >= from then acc := (i, x) :: !acc) node.entries
        | q :: rest -> (
            match q with
            | Canon.CVar _ ->
                (* skeleton variable: matches one whole stored subterm
                   along every branch (including stored variables) *)
                List.iter (fun n -> go n rest) (skip ~from node 1 [])
            | _ ->
                (* a stored variable absorbs the whole skeleton subterm *)
                Tok_tbl.iter
                  (fun tok child -> match tok with TVar _ -> go child rest | _ -> ())
                  node.children;
                let descend tok sub =
                  match Tok_tbl.find_opt node.children tok with
                  | Some child -> go child (sub @ rest)
                  | None -> ()
                in
                (match q with
                | Canon.CVar _ -> assert false
                | Canon.CAtom a -> descend (TAtom a) []
                | Canon.CInt i -> descend (TInt i) []
                | Canon.CFloat x -> descend (TFloat x) []
                | Canon.CStruct (f, args) ->
                    descend (TStruct (f, Array.length args)) (Array.to_list args)))
    in
    go t.root [ skeleton ];
    List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) !acc

  let lookup t skeleton = lookup_from ~from:0 t skeleton

  let iter_matching ?(from = 0) t skeleton f =
    List.iter (fun (i, x) -> f i x) (lookup_from ~from t skeleton)

  (* Call-subsumption retrieval (Cruz & Rocha): the entries whose stored
     key is at least as general as [probe] — i.e. [probe] is an instance
     of the key.  The walk is exact, not a candidate superset: stored
     variables absorb whole probe subterms through a persistent binding
     environment, so a non-linear stored key like p(X,X) only matches
     probes whose corresponding subterms are equal. *)
  (* Estimated heap bytes of the whole index: trie nodes, edges (with
     their token payloads), entry cells, the insertion-order vector, and
     the stored payloads through the caller's sizer. An estimate on the
     same model as [Canon.size_bytes] — an upper bound that tracks
     growth, for table-space accounting. *)
  let footprint payload_bytes t =
    let word = 8 in
    let str s = word + (((String.length s / word) + 1) * word) in
    let tok_bytes = function
      | TVar _ | TInt _ | TFloat _ -> 2 * word
      | TAtom s -> (2 * word) + str s
      | TStruct (s, _) -> (3 * word) + str s
    in
    let total = ref 0 in
    let rec node n =
      (* the node record, its child table header, one cons + pair per entry *)
      total := !total + (4 * word) + (4 * word) + (List.length n.entries * 6 * word);
      Tok_tbl.iter
        (fun tok child ->
          (* one bucket binding per edge, plus the token itself *)
          total := !total + (4 * word) + tok_bytes tok;
          node child)
        n.children
    in
    node t.root;
    total := !total + (3 * word) + (Vec.length t.order * word);
    Vec.iter (fun p -> total := !total + payload_bytes p) t.order;
    !total

  let retrieve_subsuming t probe =
    let acc = ref [] in
    let rec go node bindings agenda =
      match agenda with
      | [] -> acc := List.rev_append node.entries !acc
      | q :: rest ->
          (* a stored variable generalizes the whole probe subterm,
             consistently across repeated occurrences *)
          Tok_tbl.iter
            (fun tok child ->
              match tok with
              | TVar n -> (
                  match List.assoc_opt n bindings with
                  | Some prev -> if Canon.equal prev q then go child bindings rest
                  | None -> go child ((n, q) :: bindings) rest)
              | _ -> ())
            node.children;
          let descend tok sub =
            match Tok_tbl.find_opt node.children tok with
            | Some child -> go child bindings (sub @ rest)
            | None -> ()
          in
          (match q with
          | Canon.CVar _ ->
              (* only a stored variable is at least as general as a
                 probe variable; handled above *)
              ()
          | Canon.CAtom a -> descend (TAtom a) []
          | Canon.CInt i -> descend (TInt i) []
          | Canon.CFloat x -> descend (TFloat x) []
          | Canon.CStruct (f, args) ->
              descend (TStruct (f, Array.length args)) (Array.to_list args))
    in
    go t.root [] [ probe ];
    List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) !acc
end

(* ------------------------------------------------------------------ *)

module Subsumption = struct
  (* Answer subsumption (lattice tabling): a table declared
     [:- table p/N as subsumptive(Op)] keeps one answer per combination
     of its first N-1 ("key") arguments; the last argument is the value
     column, folded under [Op] when another answer with the same key
     arrives. [split]/[rebuild] factor a canonical answer template into
     its key part and value column; [fold] is the lattice operation. The
     SLG machine owns the per-table bookkeeping (which answer holds each
     key, consumer rewinds when a value improves); the column algebra
     lives here with the rest of the answer-store machinery. *)

  type op = Min | Max | Sum | Count | First

  let op_of_string = function
    | "min" -> Some Min
    | "max" -> Some Max
    | "sum" -> Some Sum
    | "count" -> Some Count
    | "first" -> Some First
    | _ -> None

  let op_to_string = function
    | Min -> "min"
    | Max -> "max"
    | Sum -> "sum"
    | Count -> "count"
    | First -> "first"

  exception Not_numeric of Canon.t

  (* the key of an answer: its functor and all arguments but the last,
     wrapped so arity-1 answers (empty key) still make a hashable term *)
  let split template =
    match template with
    | Canon.CStruct (_, args) when Array.length args >= 1 ->
        let n = Array.length args in
        Some (Canon.CStruct ("$subsume_key", Array.sub args 0 (n - 1)), args.(n - 1))
    | _ -> None

  let rebuild functor_name key value =
    match key with
    | Canon.CStruct ("$subsume_key", prefix) ->
        Canon.CStruct (functor_name, Array.append prefix [| value |])
    | _ -> invalid_arg "Subsumption.rebuild: not a key"

  (* numeric comparison when both sides are numbers, standard order of
     canonical terms otherwise (so min/max also work over atoms) *)
  let compare_values a b =
    match (a, b) with
    | Canon.CInt x, Canon.CInt y -> Int.compare x y
    | Canon.CFloat x, Canon.CFloat y -> Float.compare x y
    | Canon.CInt x, Canon.CFloat y -> Float.compare (float_of_int x) y
    | Canon.CFloat x, Canon.CInt y -> Float.compare x (float_of_int y)
    | _ -> Canon.compare a b

  let add_values a b =
    match (a, b) with
    | Canon.CInt x, Canon.CInt y -> Canon.CInt (x + y)
    | Canon.CFloat x, Canon.CFloat y -> Canon.CFloat (x +. y)
    | Canon.CInt x, Canon.CFloat y -> Canon.CFloat (float_of_int x +. y)
    | Canon.CFloat x, Canon.CInt y -> Canon.CFloat (x +. float_of_int y)
    | (Canon.CInt _ | Canon.CFloat _), other | other, _ -> raise (Not_numeric other)

  (* the value column of the very first answer for a key *)
  let initial op value =
    match op with
    | Min | Max | First -> value
    | Count -> Canon.CInt 1
    | Sum -> add_values (Canon.CInt 0) value

  (* fold an incoming value into the current one; [None] means the
     stored answer already subsumes the new one (no change) *)
  let fold op ~current value =
    match op with
    | First -> None
    | Min -> if compare_values value current < 0 then Some value else None
    | Max -> if compare_values value current > 0 then Some value else None
    | Count -> Some (add_values current (Canon.CInt 1))
    | Sum ->
        let sum = add_values current value in
        if Canon.equal sum current then None else Some sum
end
