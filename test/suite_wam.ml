open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine text =
  let db = Database.create () in
  ignore (Loader.consult_string db text);
  Wam.create (Wam.of_database db)

let goal = Parser.term_of_string

let count m q = Wam.count_solutions m (goal q)
let first m q = Wam.first_solution m (goal q)

let cases =
  [
    t "facts" `Quick (fun () ->
        let m = machine "p(1). p(2). p(3)." in
        check_int "all" 3 (count m "p(X)");
        check_int "bound" 1 (count m "p(2)");
        check_int "missing" 0 (count m "p(9)"));
    t "conjunction and shared variables" `Quick (fun () ->
        let m = machine "e(1,2). e(2,3). e(3,4)." in
        check_int "join" 2 (count m "e(X,Y), e(Y,Z)"));
    t "append both directions" `Quick (fun () ->
        let m = machine "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R)." in
        check_int "splits" 5 (count m "app(X,Y,[1,2,3,4])");
        (match first m "app([1,2],[3],Z)" with
        | Some [ z ] -> check_bool "forward" true (Unify.variant z (goal "[1,2,3]"))
        | _ -> Alcotest.fail "expected one binding");
        check_int "check mode" 1 (count m "app([1],[2],[1,2])"));
    t "naive reverse" `Quick (fun () ->
        let m =
          machine
            "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).\n\
             nrev([],[]). nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R)."
        in
        match first m "nrev([1,2,3,4,5,6],R)" with
        | Some [ r ] -> check_bool "reversed" true (Unify.variant r (goal "[6,5,4,3,2,1]"))
        | _ -> Alcotest.fail "expected result");
    t "deep structure unification" `Quick (fun () ->
        let m = machine "deep(f(g(h(X)), [a, f(X)])) :- X = 1." in
        check_int "match" 1 (count m "deep(f(g(h(1)), [a, f(1)]))");
        check_int "mismatch" 0 (count m "deep(f(g(h(2)), [a, f(1)]))");
        match first m "deep(T)" with
        | Some [ t ] -> check_bool "built" true (Unify.variant t (goal "f(g(h(1)), [a, f(1)])"))
        | _ -> Alcotest.fail "expected term");
    t "arithmetic and comparisons" `Quick (fun () ->
        let m =
          machine
            "fact(0,1) :- !.\nfact(N,F) :- N > 0, N1 is N - 1, fact(N1,F1), F is N * F1."
        in
        (match first m "fact(6,F)" with
        | Some [ Term.Int 720 ] -> ()
        | _ -> Alcotest.fail "fact(6) should be 720");
        check_int "guard fails" 0 (count m "fact(-1,F)"));
    t "cut: first clause commits" `Quick (fun () ->
        let m = machine "tn(null,unknown) :- !.\ntn(X,X)." in
        check_int "null one answer" 1 (count m "tn(null,R)");
        check_int "other" 1 (count m "tn(a,R)");
        match first m "tn(null,R)" with
        | Some [ Term.Atom "unknown" ] -> ()
        | _ -> Alcotest.fail "expected unknown");
    t "deep cut inside body" `Quick (fun () ->
        let m = machine "p(1). p(2). p(3).\nfirst(X) :- p(X), !, q.\nq." in
        check_int "pruned" 1 (count m "first(X)"));
    t "first-argument indexing dispatches on constants" `Quick (fun () ->
        let m = machine "color(red, warm). color(blue, cool). color(green, cool)." in
        let before = Wam.instructions_executed m in
        check_int "hit" 1 (count m "color(blue, T)");
        let cost_indexed = Wam.instructions_executed m - before in
        (* an indexed lookup must not try the other clauses: with
           try/retry chains it would execute roughly 3x as much *)
        check_bool "cheap" true (cost_indexed < 20));
    t "indexing with variable-headed clauses preserves order" `Quick (fun () ->
        let m = machine "p(a, 1). p(X, 2). p(b, 3)." in
        check_int "a matches 2 clauses" 2 (count m "p(a, N)");
        check_int "b matches 2 clauses" 2 (count m "p(b, N)");
        check_int "c matches catchall" 1 (count m "p(c, N)");
        check_int "open call" 3 (count m "p(X, N)"));
    t "indexing dispatches on structures and lists" `Quick (fun () ->
        let m = machine "k(f(1), a). k(g(2), b). k([x], c). k(99, d)." in
        check_int "struct" 1 (count m "k(f(1), R)");
        check_int "other struct" 1 (count m "k(g(2), R)");
        check_int "list" 1 (count m "k([x], R)");
        check_int "int" 1 (count m "k(99, R)");
        check_int "all" 4 (count m "k(K, R)"));
    t "integer vs atom keys do not collide" `Quick (fun () ->
        let m = machine "v(1, int). v('1', atom)." in
        check_int "int key" 1 (count m "v(1, T)");
        match first m "v(1, T)" with
        | Some [ Term.Atom "int" ] -> ()
        | _ -> Alcotest.fail "wrong bucket");
    t "builtin equality and disequality" `Quick (fun () ->
        let m = machine "" in
        check_int "unify" 1 (count m "X = f(Y), Y = 1, X == f(1)");
        check_int "fail" 0 (count m "f(1) == f(2)");
        check_int "nonequal" 1 (count m "f(1) \\== f(2)"));
    t "backtracking restores heap and trail" `Quick (fun () ->
        let m = machine "p(1). p(2).\nq(X, Y) :- p(X), p(Y)." in
        check_int "cartesian" 4 (count m "q(X, Y)"));
    t "undefined predicate fails quietly" `Quick (fun () ->
        let m = machine "p(1)." in
        check_int "no solutions" 0 (count m "nosuch(X)"));
    t "tabled facts resolve through answer clauses" `Quick (fun () ->
        let m = machine ":- table p/1.\np(1).\nq(2)." in
        check_int "tabled facts" 1 (count m "p(X)");
        check_int "others fine" 1 (count m "q(X)"));
    t "linear tabling: left recursion over a cycle terminates" `Quick (fun () ->
        let m =
          machine
            ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n\
             edge(1,2). edge(2,3). edge(3,4). edge(4,1)."
        in
        check_int "from 1" 4 (count m "path(1,X)");
        check_int "open call" 16 (count m "path(X,Y)");
        check_int "completed tables answer instantly" 4 (count m "path(1,X)"));
    t "linear tabling: mutual recursion over structures" `Quick (fun () ->
        let m =
          machine ":- table even/1, odd/1.\neven(z).\neven(s(X)) :- odd(X).\nodd(s(X)) :- even(X)."
        in
        check_int "even" 1 (count m "even(s(s(z)))");
        check_int "odd" 0 (count m "odd(s(s(z)))");
        check_int "odd 3" 1 (count m "odd(s(s(s(z))))"));
    t "linear tabling: double recursion" `Quick (fun () ->
        let m =
          machine
            ":- table p/2.\np(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), p(Z,Y).\ne(1,2). e(2,3). e(3,1)."
        in
        check_int "closure" 3 (count m "p(1,X)"));
    t "linear tabling: variant calls share tables" `Quick (fun () ->
        let m =
          machine
            ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n\
             edge(1,2). edge(2,3)."
        in
        ignore (count m "path(1,A)");
        let before = Wam.instructions_executed m in
        ignore (count m "path(1,B)");
        let second = Wam.instructions_executed m - before in
        (* the second variant call resolves against compiled answer
           clauses only *)
        check_bool "cheap second call" true (second < 60));
    t "on_solution can stop the search" `Quick (fun () ->
        let m = machine "p(1). p(2). p(3)." in
        let seen = ref 0 in
        let n =
          Wam.run m (goal "p(X)") ~on_solution:(fun _ ->
              incr seen;
              !seen < 2)
        in
        check_int "stopped at two" 2 n);
    t "instructions counter is monotonic" `Quick (fun () ->
        let m = machine "p(1)." in
        let a = Wam.instructions_executed m in
        ignore (count m "p(X)");
        check_bool "grew" true (Wam.instructions_executed m > a));
  ]

(* WAM vs the SLG engine running the same definite programs *)
let props =
  let open QCheck2 in
  [
    (* SLG answers are tabled (variant-deduplicated) while the WAM
       enumerates SLD derivations, so compare distinct solution sets *)
    Test.make ~name:"WAM = SLG on random edge joins" ~count:40 ~print:Generators.edge_facts
      (Generators.edges_gen ~n:8 ~m:14)
      (fun edges ->
        let edges = List.sort_uniq compare edges in
        let text = Generators.edge_facts edges in
        let m = machine text in
        let s = Session.create () in
        Session.consult s text;
        let wam =
          List.sort_uniq compare
            (List.map (List.map Term.to_string) (Wam.solutions m (goal "edge(X,Y), edge(Y,Z)")))
        in
        let slg =
          List.sort_uniq compare
            (List.map
               (fun (sol : Engine.solution) -> List.map (fun (_, v) -> Term.to_string v) sol.Engine.bindings)
               (Session.query s "edge(X,Y), edge(Y,Z)"))
        in
        wam = slg);
    Test.make ~name:"WAM linear tabling = SLG tabling on random graphs" ~count:40
      ~print:Generators.edge_facts (Generators.edges_gen ~n:8 ~m:14) (fun edges ->
        let edges = List.sort_uniq compare edges in
        let text =
          ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n"
          ^ Generators.edge_facts edges
        in
        let m = machine text in
        let s = Session.create () in
        Session.consult s text;
        let wam =
          List.sort_uniq compare (List.map (List.map Term.to_string) (Wam.solutions m (goal "path(1,X)")))
        in
        let slg =
          List.sort_uniq compare
            (List.map
               (fun (sol : Engine.solution) -> List.map (fun (_, v) -> Term.to_string v) sol.Engine.bindings)
               (Session.query s "path(1,X)"))
        in
        wam = slg);
    Test.make ~name:"WAM = SLG on bounded right-recursive path" ~count:40
      ~print:Generators.edge_facts (Generators.edges_gen ~n:7 ~m:8) (fun edges ->
        (* keep it acyclic: only keep edges a<b so SLD terminates *)
        let edges = List.sort_uniq compare (List.filter (fun (a, b) -> a < b) edges) in
        let text =
          "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"
          ^ Generators.edge_facts edges
        in
        let m = machine text in
        let s = Session.create () in
        Session.consult s text;
        let wam =
          List.sort_uniq compare (List.map (List.map Term.to_string) (Wam.solutions m (goal "path(1,X)")))
        in
        let slg =
          List.sort_uniq compare
            (List.map
               (fun (sol : Engine.solution) -> List.map (fun (_, v) -> Term.to_string v) sol.Engine.bindings)
               (Session.query s "path(1,X)"))
        in
        wam = slg);
  ]

let suite = cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) props

let image_cases =
  [
    t "byte-code image round trip" `Quick (fun () ->
        let text =
          ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n\
           edge(1,2). edge(2,3). edge(3,1).\napp([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R)."
        in
        let db = Database.create () in
        ignore (Loader.consult_string db text);
        let program = Wam.of_database db in
        let path = Filename.temp_file "wamimg" ".xwam" in
        Wam_image.save program path;
        let loaded = Wam_image.load path in
        Sys.remove path;
        let m = Wam.create loaded in
        check_int "untabled pred runs" 4 (count m "app(X,Y,[a,b,c])");
        check_int "tabled pred runs from the image" 3 (count m "path(1,X)"));
    t "image rejects garbage" `Quick (fun () ->
        let path = Filename.temp_file "wamimg" ".bad" in
        Out_channel.with_open_bin path (fun oc -> output_string oc "NOTWAM!!x");
        (match Wam_image.load path with
        | exception Wam_image.Bad_image _ -> ()
        | exception End_of_file -> ()
        | _ -> Alcotest.fail "expected rejection");
        Sys.remove path);
    t "load_into merges programs" `Quick (fun () ->
        let mk text =
          let db = Database.create () in
          ignore (Loader.consult_string db text);
          Wam.of_database db
        in
        let base = mk "p(1)." in
        let extra = mk "q(2). q(3)." in
        let path = Filename.temp_file "wamimg" ".xwam" in
        Wam_image.save extra path;
        ignore (Wam_image.load_into base path);
        Sys.remove path;
        let m = Wam.create base in
        check_int "original" 1 (count m "p(X)");
        check_int "merged" 2 (count m "q(X)"));
  ]

let suite = suite @ image_cases
