(* The oracles judge the server, so they are judged first: each one
   against cases worked out by hand. Every benchmark run performs these
   checks before it measures, and refuses to judge when one fails. *)

open Workload

let cases =
  [
    ("bfs: chain", bfs_reach [ (1, 2); (2, 3) ] 1 = [ 2; 3 ]);
    ("bfs: a cycle reaches its start", bfs_reach [ (1, 2); (2, 1) ] 1 = [ 1; 2 ]);
    ("bfs: no edges", bfs_reach [] 5 = []);
    ("bfs: other component", bfs_reach [ (1, 2); (3, 4) ] 1 = [ 2 ]);
    ("bfs: diamond", bfs_reach [ (0, 1); (0, 2); (1, 3); (2, 3) ] 0 = [ 1; 2; 3 ]);
    ("bfs: 4-cycle is every node", bfs_reach [ (0, 1); (1, 2); (2, 3); (3, 0) ] 2 = [ 0; 1; 2; 3 ]);
    ("depth: root", depth 1 = 0);
    ("depth: 2 and 3", depth 2 = 1 && depth 3 = 1);
    ("depth: 4 and 7", depth 4 = 2 && depth 7 = 2 && depth 8 = 3);
    ("sg: cousins", sg_oracle 4 7);
    ("sg: node with itself", sg_oracle 1 1);
    ("sg: different depths", not (sg_oracle 3 4));
    ("win: leaf loses", not (win_oracle ~nodes:3 2));
    ("win: move to a leaf wins", win_oracle ~nodes:3 1);
    ("win: every move to a winner loses", not (win_oracle ~nodes:7 1));
    ("win: lopsided tree", win_oracle ~nodes:4 1 && win_oracle ~nodes:4 2 && not (win_oracle ~nodes:4 3));
    ( "warm-rows: the cycle set",
      rows_of_ints (bfs_reach (List.init 4 (fun i -> (i, (i + 1) mod 4))) 0)
      = [ "X = 0"; "X = 1"; "X = 2"; "X = 3" ] );
    ("rows: ground success", rows_of_bool true = [ "true" ] && rows_of_bool false = []);
    ("fact rows", fact_row "edge(1,2)" = "U = 1, V = 2");
  ]

(* the names of the failing cases *)
let failures () = List.filter_map (fun (name, ok) -> if ok then None else Some name) cases
