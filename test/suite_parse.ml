open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse = Parser.term_of_string
let canonical s = Term.to_string (parse s)

(* structural check: parse [s] and compare with an explicitly built term *)
let parses_to s expected () = check_bool s true (Unify.variant (parse s) expected)

let a = Term.atom
let i n = Term.Int n
let f name args = Term.app name args

let cases =
  [
    t "fact" `Quick (parses_to "parent(john, mary)" (f "parent" [ a "john"; a "mary" ]));
    t "operators follow precedence" `Quick
      (parses_to "1 + 2 * 3" (f "+" [ i 1; f "*" [ i 2; i 3 ] ]));
    t "yfx is left associative" `Quick
      (parses_to "1 - 2 - 3" (f "-" [ f "-" [ i 1; i 2 ]; i 3 ]));
    t "xfy is right associative" `Quick
      (parses_to "a ; b ; c" (f ";" [ a "a"; f ";" [ a "b"; a "c" ] ]));
    t "comma binds looser than ;" `Quick
      (parses_to "(a , b ; c)" (f ";" [ f "," [ a "a"; a "b" ]; a "c" ]));
    t "clause structure" `Quick
      (parses_to "p(X) :- q(X), r(X)"
         (let x = Term.fresh_var () in
          f ":-" [ f "p" [ x ]; f "," [ f "q" [ x ]; f "r" [ x ] ] ]));
    t "prefix minus on numbers" `Quick (fun () ->
        check_bool "negative literal" true (Unify.variant (parse "-5") (i (-5)));
        check_bool "subtraction" true (Unify.variant (parse "1 - 5") (f "-" [ i 1; i 5 ]));
        check_bool "prefix on var" true
          (Unify.variant (parse "- X") (f "-" [ Term.fresh_var () ])));
    t "lists" `Quick (fun () ->
        check_string "proper" "[1,2,3]" (canonical "[1, 2, 3]");
        check_bool "tail" true
          (Unify.variant (parse "[1,2|X]")
             (Term.cons (i 1) (Term.cons (i 2) (Term.fresh_var ()))));
        check_bool "empty" true (Unify.variant (parse "[]") Term.nil));
    t "nested list sugar equals cons" `Quick
      (parses_to "[a,b]" (Term.cons (a "a") (Term.cons (a "b") Term.nil)));
    t "curly braces" `Quick (parses_to "{a,b}" (f "{}" [ f "," [ a "a"; a "b" ] ]));
    t "strings become code lists" `Quick
      (parses_to "\"ab\"" (Term.list_ [ i 97; i 98 ]));
    t "char code" `Quick (parses_to "0'a" (i 97));
    t "hex octal binary" `Quick (fun () ->
        check_bool "hex" true (Unify.variant (parse "0xff") (i 255));
        check_bool "oct" true (Unify.variant (parse "0o17") (i 15));
        check_bool "bin" true (Unify.variant (parse "0b101") (i 5)));
    t "floats" `Quick (fun () ->
        check_bool "simple" true (Unify.variant (parse "1.5") (Term.Float 1.5));
        check_bool "exponent" true (Unify.variant (parse "2.0e3") (Term.Float 2000.0)));
    t "quoted atoms" `Quick (fun () ->
        check_bool "spaces" true (Unify.variant (parse "'hello world'") (a "hello world"));
        check_bool "escaped quote" true (Unify.variant (parse "'it''s'") (a "it's"));
        check_bool "backslash n" true (Unify.variant (parse "'a\\nb'") (a "a\nb")));
    t "comments" `Quick (fun () ->
        check_int "program" 2
          (List.length
             (Parser.program_of_string "% line comment\np(1). /* block\ncomment */ p(2).")));
    t "variables shared within a term" `Quick (fun () ->
        let term, vars = Parser.term_of_string_with_vars "f(X, Y, X)" in
        check_int "two named vars" 2 (List.length vars);
        check_int "term vars" 2 (List.length (Term.vars term)));
    t "underscore is always fresh" `Quick (fun () ->
        let term = parse "f(_, _)" in
        check_int "two distinct" 2 (List.length (Term.vars term)));
    t "hilog application chains" `Quick (fun () ->
        check_bool "var functor" true
          (Unify.variant (parse "X(a,b)")
             (f "apply" [ Term.fresh_var (); a "a"; a "b" ]));
        check_bool "compound functor" true
          (Unify.variant (parse "p(a)(b)") (f "apply" [ f "p" [ a "a" ]; a "b" ]));
        check_bool "integer functor" true
          (Unify.variant (parse "7(E)") (f "apply" [ i 7; Term.fresh_var () ])));
    t "hilog chain of three" `Quick
      (parses_to "f(a)(b)(c)" (f "apply" [ f "apply" [ f "f" [ a "a" ]; a "b" ]; a "c" ]));
    t "f (a) with space is not application" `Quick (fun () ->
        (* prefix-operator atoms apply; 'f' is not an operator so this is an error *)
        match parse "f (a)" with
        | exception Parser.Error _ -> ()
        | t -> Alcotest.failf "expected error, got %s" (Term.to_string t));
    t "end detection" `Quick (fun () ->
        check_int "two clauses" 2 (List.length (Parser.program_of_string "p(1.0). q(2)."));
        check_bool "=.. not end" true
          (Unify.variant (parse "X =.. L") (f "=.." [ Term.fresh_var (); Term.fresh_var () ])));
    t "custom operators via ops table" `Quick (fun () ->
        let ops = Ops.create () in
        Ops.add ops 700 Ops.XFX "likes";
        check_bool "custom infix" true
          (Unify.variant
             (Parser.term_of_string ~ops "john likes mary")
             (f "likes" [ a "john"; a "mary" ])));
    t "op removal" `Quick (fun () ->
        let ops = Ops.create () in
        Ops.add ops 0 Ops.YFX "+";
        match Parser.term_of_string ~ops "1 + 2" with
        | exception Parser.Error _ -> ()
        | t -> Alcotest.failf "expected error, got %s" (Term.to_string t));
    t "syntax errors carry positions" `Quick (fun () ->
        match parse "f(a," with
        | exception Parser.Error (_, pos) -> check_bool "position positive" true (pos > 0)
        | _ -> Alcotest.fail "expected error");
    t "read_term sequences" `Quick (fun () ->
        let lexer = Lexer.of_string "p(1). p(2). p(3)." in
        let rec count n =
          match Parser.read_term lexer with Some _ -> count (n + 1) | None -> n
        in
        check_int "three" 3 (count 0));
    t "pretty round trip on operators" `Quick (fun () ->
        List.iter
          (fun s ->
            let term = parse s in
            let printed = Pretty.to_string term in
            check_bool (s ^ " -> " ^ printed) true (Unify.variant (parse printed) term))
          [
            "1 + 2 * 3";
            "(1 + 2) * 3";
            "p(X) :- q(X), r(X)";
            "a ; b -> c ; d";
            "f(-1, [a,b|T])";
            "X = g(Y)";
            "- (1 + 2)";
            "p(a)(b,c)";
            "\\+ p(X)";
          ]);
    t "pretty hilog decode" `Quick (fun () ->
        check_string "apply printed as application" "p(a)(b)"
          (Pretty.to_string (parse "p(a)(b)")));
    t "max_depth truncation" `Quick (fun () ->
        let deep = parse "f(f(f(f(f(a)))))" in
        let shallow = Fmt.str "%a" (Pretty.pp ~max_depth:2 ()) deep in
        check_bool "truncated" true (String.length shallow < String.length (Pretty.to_string deep)));
  ]

let props =
  let open QCheck2 in
  [
    Test.make ~name:"parse (pretty t) is a variant of t" ~count:300
      ~print:Generators.term_print Generators.term_gen (fun term ->
        let term = Term.copy term in
        let printed = Pretty.to_string term in
        match parse printed with
        | parsed -> Unify.variant term parsed
        | exception _ -> QCheck2.Test.fail_reportf "unparseable: %s" printed);
    Test.make ~name:"canonical print parses back" ~count:300 ~print:Generators.term_print
      Generators.term_gen (fun term ->
        let term = Term.copy term in
        match parse (Term.to_string term) with
        | parsed -> Unify.variant term parsed
        | exception _ -> QCheck2.Test.fail_reportf "unparseable: %s" (Term.to_string term));
  ]

let suite = cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
