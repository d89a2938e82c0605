open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let program text = Datalog.of_clauses (Parser.program_of_string text)
let goal = Parser.term_of_string

let tc edges =
  "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n" ^ Generators.edge_facts edges

let cycle n = List.init n (fun i -> (i + 1, if i + 1 = n then 1 else i + 2))
let chain n = List.init (n - 1) (fun i -> (i + 1, i + 2))

let cases =
  [
    t "facts only" `Quick (fun () ->
        let st = Bottomup.run (program "e(1,2). e(3,4).") in
        check_int "two" 2 (Bottomup.relation_size st ("e", 2)));
    t "transitive closure on a chain" `Quick (fun () ->
        let st = Bottomup.run (program (tc (chain 6))) in
        check_int "15 pairs" 15 (Bottomup.relation_size st ("path", 2)));
    t "transitive closure on a cycle" `Quick (fun () ->
        let st = Bottomup.run (program (tc (cycle 5))) in
        check_int "n^2 pairs" 25 (Bottomup.relation_size st ("path", 2)));
    t "naive equals seminaive" `Quick (fun () ->
        let p = program (tc (cycle 7)) in
        let a = Bottomup.run ~strategy:Bottomup.Naive p in
        let b = Bottomup.run ~strategy:Bottomup.Seminaive p in
        check_int "same size" (Bottomup.relation_size a ("path", 2))
          (Bottomup.relation_size b ("path", 2)));
    t "answers instantiate a goal pattern" `Quick (fun () ->
        let st = Bottomup.run (program (tc (chain 5))) in
        check_int "from 1" 4 (List.length (Bottomup.answers st (goal "path(1, X)")));
        check_int "specific" 1 (List.length (Bottomup.answers st (goal "path(2, 4)"))));
    t "stratified negation (perfect model)" `Quick (fun () ->
        let st =
          Bottomup.run
            (program
               "reach(1).\n\
                reach(Y) :- reach(X), edge(X,Y).\n\
                unreach(X) :- node(X), \\+ reach(X).\n\
                edge(1,2). edge(2,3). edge(5,6).\n\
                node(1). node(2). node(3). node(4). node(5). node(6).")
        in
        check_int "unreachable" 3 (Bottomup.relation_size st ("unreach", 1)));
    t "unstratifiable raises" `Quick (fun () ->
        match Bottomup.run (program "p :- \\+ q.\nq :- \\+ p.") with
        | exception Datalog.Unstratifiable _ -> ()
        | _ -> Alcotest.fail "expected Unstratifiable");
    t "strata order callees first" `Quick (fun () ->
        let strata = Datalog.strata (program "a :- b.\nb :- c.\nc(1) :- d.\nd.") in
        let flat = List.concat strata in
        let pos key = Option.get (List.find_index (fun k -> k = key) flat) in
        check_bool "d before b" true (pos ("d", 0) < pos ("b", 0));
        check_bool "b before a" true (pos ("b", 0) < pos ("a", 0)));
    t "magic restricts the computation to relevant facts" `Quick (fun () ->
        (* two disconnected components: magic must not touch the second *)
        let edges = chain 6 @ [ (100, 101); (101, 102) ] in
        let p = program (tc edges) in
        let r = Magic.rewrite p (goal "path(1, X)") in
        let st = Bottomup.run r.Magic.program in
        check_int "only component answers" 5
          (Bottomup.relation_size st r.Magic.query_pred);
        (* a full evaluation computes both components *)
        let full = Bottomup.run p in
        check_int "full model is bigger" 18 (Bottomup.relation_size full ("path", 2)));
    t "magic answers equal full-model answers" `Quick (fun () ->
        let edges = cycle 6 in
        let p = program (tc edges) in
        let magic = List.length (Magic.answers p (goal "path(2, X)")) in
        let st = Bottomup.run p in
        check_int "equal" (List.length (Bottomup.answers st (goal "path(2, X)"))) magic);
    t "magic with bound-bound adornment" `Quick (fun () ->
        let p = program (tc (chain 8)) in
        check_int "bb query" 1 (List.length (Magic.answers p (goal "path(2, 5)")));
        check_int "bb no" 0 (List.length (Magic.answers p (goal "path(5, 2)"))));
    t "magic on non-linear rules (same generation)" `Quick (fun () ->
        let p =
          program
            "sg(X,Y) :- sib(X,Y).\n\
             sg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).\n\
             sib(X,Y) :- par(X,P), par(Y,P).\n\
             par(2,1). par(3,1). par(4,2). par(5,2). par(6,3). par(7,3)."
        in
        check_int "sg(4,Y)" 4 (List.length (Magic.answers p (goal "sg(4, Y)"))));
    t "factoring produces the unary program and the same answers" `Quick (fun () ->
        let p = program (tc (cycle 8)) in
        let unfactored = Magic.rewrite p (goal "path(1, X)") in
        let factored = Magic.rewrite ~factor:true p (goal "path(1, X)") in
        check_bool "arity reduced" true (snd factored.Magic.query_pred < snd unfactored.Magic.query_pred);
        let a = List.length (Magic.answers p (goal "path(1, X)")) in
        let b = List.length (Magic.answers ~factor:true p (goal "path(1, X)")) in
        check_int "same answers" a b;
        check_int "eight" 8 a);
    t "factoring not applicable falls back silently" `Quick (fun () ->
        (* same-generation passes the bound argument through par first:
           not factorable; rewrite must still work *)
        let p =
          program
            "sg(X,Y) :- sib(X,Y).\n\
             sg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).\n\
             sib(X,Y) :- par(X,P), par(Y,P).\n\
             par(2,1). par(3,1)."
        in
        check_int "answers" 2 (List.length (Magic.answers ~factor:true p (goal "sg(2, Y)"))));
    t "magic rejects negation" `Quick (fun () ->
        let p = program "p(X) :- d(X), \\+ q(X).\nd(1). q(2)." in
        match Magic.rewrite p (goal "p(X)") with
        | exception Magic.Not_applicable _ -> ()
        | _ -> Alcotest.fail "expected Not_applicable");
    t "mixed fact/rule predicates still restricted by magic" `Quick (fun () ->
        let p = program "p(1).\np(Y) :- p(X), e(X,Y).\ne(1,2). e(2,3)." in
        check_int "answers" 3 (List.length (Magic.answers p (goal "p(X)"))));
    t "iterations counted" `Quick (fun () ->
        let st = Bottomup.run (program (tc (chain 9))) in
        check_bool "several rounds" true (Bottomup.iterations st >= 7));
  ]

let props =
  let open QCheck2 in
  let print_start = Print.pair Generators.edge_facts Print.int in
  [
    Test.make ~name:"naive = seminaive on random graphs" ~count:50 ~print:Generators.edge_facts
      (Generators.edges_gen ~n:8 ~m:14) (fun edges ->
        let p = program (tc edges) in
        let a = Bottomup.run ~strategy:Bottomup.Naive p in
        let b = Bottomup.run ~strategy:Bottomup.Seminaive p in
        Bottomup.relation_size a ("path", 2) = Bottomup.relation_size b ("path", 2));
    Test.make ~name:"magic = full model on query-relevant answers" ~count:50 ~print:print_start
      (QCheck2.Gen.pair (Generators.edges_gen ~n:8 ~m:14) (QCheck2.Gen.int_range 1 8))
      (fun (edges, start) ->
        let p = program (tc edges) in
        let g () = goal (Printf.sprintf "path(%d, X)" start) in
        let magic = List.length (Magic.answers p (g ())) in
        let st = Bottomup.run p in
        magic = List.length (Bottomup.answers st (g ())));
    Test.make ~name:"factoring preserves answers" ~count:50 ~print:print_start
      (QCheck2.Gen.pair (Generators.edges_gen ~n:8 ~m:14) (QCheck2.Gen.int_range 1 8))
      (fun (edges, start) ->
        let p = program (tc edges) in
        let g () = goal (Printf.sprintf "path(%d, X)" start) in
        List.length (Magic.answers ~factor:true p (g ()))
        = List.length (Magic.answers p (g ())));
  ]

let suite = cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
