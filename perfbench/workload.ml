(* Seeded workload generation and the correctness oracles that judge
   the server's answers.

   Every input the server sees — program text and goals — is generated
   here from the workload seed; the expected reply of every read is
   computed here too, by an oracle that never calls the engine (BFS for
   path/reach, depth equality for sg, direct game value for win). The
   oracles are checked against hand-made cases in [Selftest] before any
   run is judged. *)

(* ---------- oracles ---------- *)

(* nodes reachable from [src] through one or more edges — the meaning
   of path(Src,Y) and reach(Src,Y) *)
let bfs_reach edges src =
  let succ = Hashtbl.create 64 in
  List.iter (fun (u, v) -> Hashtbl.add succ u v) edges;
  let seen = Hashtbl.create 64 in
  let rec visit = function
    | [] -> ()
    | u :: rest ->
        let next =
          List.filter
            (fun v ->
              if Hashtbl.mem seen v then false
              else begin
                Hashtbl.replace seen v ();
                true
              end)
            (Hashtbl.find_all succ u)
        in
        visit (next @ rest)
  in
  visit [ src ];
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) seen [])

(* binary trees are heap-numbered from 1: the parent of n is n/2 *)
let depth n =
  let rec go n d = if n <= 1 then d else go (n / 2) (d + 1) in
  go n 0

(* sg(A,B) over a complete binary tree holds exactly when A and B sit
   at the same depth: their ancestor chains meet at the root *)
let sg_oracle a b = depth a = depth b

(* win(N) over move(Parent,Child) in a tree of [nodes] nodes: a
   position wins when some move leads to a losing one *)
let win_oracle ~nodes n =
  let rec win n =
    let kids = List.filter (fun c -> c <= nodes) [ 2 * n; (2 * n) + 1 ] in
    List.exists (fun c -> not (win c)) kids
  in
  win n

(* how the server renders a solution: "true" for a ground success, one
   "X = v" row per binding otherwise *)
let rows_of_ints xs = List.map (fun x -> Printf.sprintf "X = %d" x) xs
let rows_of_bool b = if b then [ "true" ] else []

(* ---------- operations ---------- *)

type op =
  | Read of { abolish : bool; goal : string; expect : string list (* sorted *) }
  | Write of { clause : string }

type t = {
  name : string;
  program : string;  (** consulted once per session at setup *)
  warm : string list;  (** goals run at setup, outside the measurement *)
  durable : bool;  (** server runs with a data dir (one shared session) *)
  standby : bool;  (** a semi-sync standby follows the primary *)
  clients : op array array;  (** each client's op sequence, run in order *)
  initial : string list;  (** facts the program consults, checked with the acked writes *)
  check_goal : string;  (** after the run: lists every fact of the written predicate *)
}

let clients = 2

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let facts name pairs =
  let b = Buffer.create 4096 in
  List.iter (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%s(%d,%d).\n" name u v)) pairs;
  Buffer.contents b

(* ---------- cold-eval: the paper's §5 programs, evaluated from scratch ---------- *)

let path_nodes = 200
let sg_nodes = 255 (* depths 0..7 *)
let win_nodes = 511 (* depths 0..8 *)

(* two strongly connected halves, each a seeded Hamiltonian cycle plus
   one random edge per node (out-degree 2), where only the second half
   has edges into the first: path(A,_) has exactly 100 answers from the
   first half and 200 from the second, whatever the seed, so the seed
   moves the graph's shape but not the amount of work *)
let path_edges st =
  let half = path_nodes / 2 in
  let perm base =
    let a = Array.init half (fun i -> base + i) in
    shuffle st a;
    a
  in
  let a = perm 0 and b = perm half in
  let cycle p = List.init half (fun i -> (p.(i), p.((i + 1) mod half))) in
  let extra p ~target =
    List.init half (fun i ->
        let succ = p.((i + 1) mod half) in
        let rec pick () =
          let v = target i in
          if v = succ then pick () else (p.(i), v)
        in
        pick ())
  in
  let into_a _ = Random.State.int st half in
  (* the second half's first extra edge always crosses, so every node
     of the second half reaches the first *)
  let anywhere i = if i = 0 then into_a i else Random.State.int st path_nodes in
  List.concat [ cycle a; cycle b; extra a ~target:into_a; extra b ~target:anywhere ]

let cold_eval st ~ops_per_client =
  let edges = path_edges st in
  let tree = List.init (sg_nodes - 1) (fun i -> (i + 2, (i + 2) / 2)) in
  let moves = List.init (win_nodes - 1) (fun i -> ((i + 2) / 2, i + 2)) in
  let program =
    String.concat ""
      [
        ":- table path/2.\n";
        "path(X,Y) :- path(X,Z), edge(Z,Y).\npath(X,Y) :- edge(X,Y).\n";
        facts "edge" edges;
        ":- table sg/2.\n";
        "sg(X,Y) :- node(X), X = Y.\nsg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).\n";
        String.concat "" (List.init sg_nodes (fun i -> Printf.sprintf "node(%d).\n" (i + 1)));
        facts "par" tree;
        ":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).\n";
        facts "move" moves;
      ]
  in
  let reach = Hashtbl.create path_nodes in
  let reach_of a =
    match Hashtbl.find_opt reach a with
    | Some r -> r
    | None ->
        let r = bfs_reach edges a in
        Hashtbl.replace reach a r;
        r
  in
  let at_depth d = (1 lsl d) + Random.State.int st (1 lsl d) in
  let one kind =
    match kind with
    | 0 ->
        let a = Random.State.int st path_nodes and b = Random.State.int st path_nodes in
        (Printf.sprintf "path(%d,%d)" a b, rows_of_bool (List.mem b (reach_of a)))
    | 1 ->
        let d = 3 + Random.State.int st 5 in
        let a = at_depth d in
        let b = if Random.State.bool st then at_depth d else at_depth (3 + Random.State.int st 5) in
        (Printf.sprintf "sg(%d,%d)" a b, rows_of_bool (sg_oracle a b))
    | _ ->
        let n = at_depth (Random.State.int st 3) in
        (Printf.sprintf "win(%d)" n, rows_of_bool (win_oracle ~nodes:win_nodes n))
  in
  let client () =
    (* an exact third of each program, in seeded order *)
    let kinds = Array.init ops_per_client (fun i -> i mod 3) in
    shuffle st kinds;
    Array.map
      (fun k ->
        let goal, expect = one k in
        Read { abolish = true; goal; expect })
      kinds
  in
  let cs = Array.init clients (fun _ -> client ()) in
  {
    name = "cold-eval";
    program;
    warm = [ "path(0,1)"; "sg(8,9)"; "win(1)" ];
    durable = false;
    standby = false;
    clients = cs;
    initial = [];
    check_goal = "";
  }

(* ---------- warm-rows: 128-row replies from completed tables ---------- *)

let cycle = 128

let warm_rows st ~ops_per_client =
  let edges = List.init cycle (fun i -> (i, (i + 1) mod cycle)) in
  let program =
    ":- table path/2.\npath(X,Y) :- path(X,Z), edge(Z,Y).\npath(X,Y) :- edge(X,Y).\n"
    ^ facts "edge" edges
  in
  let all = rows_of_ints (List.init cycle Fun.id) |> List.sort compare in
  let client () =
    Array.init ops_per_client (fun _ ->
        let k = Random.State.int st cycle in
        Read { abolish = false; goal = Printf.sprintf "path(%d,X)" k; expect = all })
  in
  {
    name = "warm-rows";
    program;
    warm = List.init cycle (fun k -> Printf.sprintf "path(%d,X)" k);
    durable = false;
    standby = false;
    clients = Array.init clients (fun _ -> client ());
    initial = [];
    check_goal = "";
  }

(* ---------- durable-mixed: clustered incremental reach, 4 reads : 1 write ---------- *)

let n_clusters = 64
let cluster_size = 16
let initial_edges_per_cluster = 14

let durable_mixed st ~ops_per_client =
  let node c i = (c * cluster_size) + i in
  (* per-cluster edge sets, mutated as the generator simulates writes *)
  let edges = Array.make n_clusters [] in
  for c = 0 to n_clusters - 1 do
    let rec add k =
      if k > 0 then begin
        let u = Random.State.int st cluster_size and v = Random.State.int st cluster_size in
        if u <> v && not (List.mem (node c u, node c v) edges.(c)) then begin
          edges.(c) <- (node c u, node c v) :: edges.(c);
          add (k - 1)
        end
        else add k
      end
    in
    add initial_edges_per_cluster
  done;
  let initial = List.concat (Array.to_list edges) |> List.sort compare in
  let program =
    ":- table reach/2 as incremental.\n:- dynamic edge/2.\n"
    ^ "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z), edge(Z,Y).\n" ^ facts "edge" initial
  in
  let source c = node c 0 in
  (* clusters are split between the clients, so each client's reads see
     exactly its own earlier writes and the oracle stays exact under
     concurrency; both still contend on the server's shared session *)
  let per_client = n_clusters / clients in
  let client k =
    let mine () = (k * per_client) + Random.State.int st per_client in
    let writes_at = Array.init ops_per_client (fun i -> i mod 5 = 0) in
    shuffle st writes_at;
    Array.map
      (fun is_write ->
        let c = mine () in
        let full = List.length edges.(c) >= cluster_size * (cluster_size - 1) in
        if is_write && not full then begin
          let rec fresh () =
            let u = Random.State.int st cluster_size and v = Random.State.int st cluster_size in
            if u <> v && not (List.mem (node c u, node c v) edges.(c)) then (node c u, node c v)
            else fresh ()
          in
          let e = fresh () in
          edges.(c) <- e :: edges.(c);
          Write { clause = Printf.sprintf "edge(%d,%d)" (fst e) (snd e) }
        end
        else
          Read
            {
              abolish = false;
              goal = Printf.sprintf "reach(%d,X)" (source c);
              expect = List.sort compare (rows_of_ints (bfs_reach edges.(c) (source c)));
            })
      writes_at
  in
  let cs = Array.init clients client in
  {
    name = "durable-mixed";
    program;
    warm = List.init n_clusters (fun c -> Printf.sprintf "reach(%d,X)" (source c));
    durable = true;
    standby = false;
    clients = cs;
    initial = List.map (fun (u, v) -> Printf.sprintf "edge(%d,%d)" u v) initial;
    check_goal = "edge(U,V)";
  }

(* ---------- semisync-writes: ASSERT-only against primary + 1 standby ---------- *)

let semisync_writes st ~ops_per_client =
  let client k =
    Array.init ops_per_client (fun i ->
        Write
          {
            clause =
              Printf.sprintf "fact(%d,%d)" (((k + 1) * 1_000_000) + i) (Random.State.int st 1_000_000);
          })
  in
  {
    name = "semisync-writes";
    program = ":- dynamic fact/2.\nfact(0,0).\n";
    warm = [ "fact(0,X)" ];
    durable = true;
    standby = true;
    clients = Array.init clients client;
    initial = [ "fact(0,0)" ];
    check_goal = "fact(U,V)";
  }

(* each workload's generator, its nominal throughput (ops/s, both
   clients, on a 2-core machine: it only sizes the fixed op count of a
   [--seconds] run) and its round length in ops per client.
   durable-mixed grows its database with every write, and incremental
   repair grows dearer with it; its run is a series of rounds, each on
   a fresh data dir, so every round starts from the same kind of state
   and the run's length does not change what a round measures. *)
let table =
  [
    ("cold-eval", (cold_eval, 550, max_int));
    ("warm-rows", (warm_rows, 800, max_int));
    ("durable-mixed", (durable_mixed, 2000, 2000));
    ("semisync-writes", (semisync_writes, 380, max_int));
  ]

let names = List.map fst table

(* a run: one or more rounds, each a workload run on a fresh set-up *)
let make ~name ~seed ~seconds =
  let gen, rate, round = List.assoc name table in
  let per_client = max 10 (rate * seconds / clients) in
  let ops_per_client = min per_client round in
  (* the workload name salts the stream so workloads never share inputs *)
  let st = Random.State.make [| seed; Hashtbl.hash name |] in
  List.init (max 1 (per_client / ops_per_client)) (fun _ -> gen st ~ops_per_client)

let total_ops rounds =
  List.fold_left (fun n w -> Array.fold_left (fun n ops -> n + Array.length ops) n w.clients) 0 rounds

let issued_writes w =
  Array.to_list w.clients
  |> List.concat_map (fun ops ->
         Array.to_list ops |> List.filter_map (function Write { clause } -> Some clause | Read _ -> None))

(* the rows the durability checks expect: every write, rendered the way
   a U,V query renders a fact *)
let fact_row clause =
  match String.index_opt clause '(' with
  | None -> clause
  | Some i ->
      let inner = String.sub clause (i + 1) (String.length clause - i - 2) in
      (match String.split_on_char ',' inner with
      | [ u; v ] -> Printf.sprintf "U = %s, V = %s" u v
      | _ -> clause)
