(* Tests for the SQL frontend: lexing, parsing, and compilation to secure
   Yannakakis queries, checked end-to-end against plaintext evaluation. *)

open Secyan_crypto
open Secyan_relational
open Secyan_sql

let check_i64 = Alcotest.testable (fun fmt v -> Fmt.pf fmt "%Ld" v) Int64.equal
let v i = Value.Int i

let rel name schema rows =
  Relation.of_list ~name ~schema:(Schema.of_list schema)
    (List.map (fun (vs, a) -> (Array.of_list vs, Int64.of_int a)) rows)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_basic () =
  let tokens = Lexer.tokenize "SELECT a, SUM(x) FROM r WHERE a >= 10" in
  Alcotest.(check int) "token count" 14 (List.length tokens);
  (match List.map fst tokens with
  | Lexer.Kw "SELECT" :: Lexer.Ident "a" :: Lexer.Symbol "," :: Lexer.Kw "SUM" :: _ -> ()
  | _ -> Alcotest.fail "unexpected token stream");
  (* keywords are case-insensitive *)
  match Lexer.tokenize "select" with
  | [ (Lexer.Kw "SELECT", 0); (Lexer.Eof, 6) ] -> ()
  | _ -> Alcotest.fail "lowercase keyword"

let test_lexer_strings () =
  (match List.map fst (Lexer.tokenize "'hello world'") with
  | [ Lexer.String "hello world"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "string literal");
  (match List.map fst (Lexer.tokenize "'it''s'") with
  | [ Lexer.String "it's"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "escaped quote");
  match Lexer.tokenize "ab 'oops" with
  | exception Lexer.Error { offset = 3; message = "unterminated string literal" } -> ()
  | exception Lexer.Error { offset; _ } ->
      Alcotest.failf "unterminated string reported at offset %d, expected 3" offset
  | _ -> Alcotest.fail "unterminated string lexed"

let test_lexer_operators () =
  match List.map fst (Lexer.tokenize "a <= b <> c != d") with
  | [ Lexer.Ident "a"; Lexer.Symbol "<="; Lexer.Ident "b"; Lexer.Symbol "<>";
      Lexer.Ident "c"; Lexer.Symbol "<>"; Lexer.Ident "d"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "operator tokens"

let test_lexer_offsets () =
  let tokens = Lexer.tokenize "SELECT a FROM r" in
  Alcotest.(check (list int)) "byte offsets" [ 0; 7; 9; 14; 15 ] (List.map snd tokens);
  (* a stray character is rejected with its position, not a crash *)
  match Lexer.tokenize "SELECT a; b" with
  | exception Lexer.Error { offset = 8; _ } -> ()
  | exception Lexer.Error { offset; _ } ->
      Alcotest.failf "stray char reported at offset %d, expected 8" offset
  | _ -> Alcotest.fail "stray character lexed"

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parser_q3_shape () =
  let q =
    Parser.select
      "SELECT o_orderkey, o_orderdate, SUM(price * (100 - discount)) \
       FROM customer, orders, lineitem \
       WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
         AND mktsegment = 'AUTOMOBILE' AND o_orderdate < DATE '1995-03-13' \
       GROUP BY o_orderkey, o_orderdate"
  in
  Alcotest.(check (list string)) "tables" [ "customer"; "orders"; "lineitem" ] q.Ast.tables;
  Alcotest.(check int) "two output columns" 2 (List.length q.Ast.out_columns);
  Alcotest.(check int) "four conjuncts" 4 (List.length q.Ast.where);
  (match q.Ast.aggregate with
  | Ast.Sum (Ast.Mul (Ast.Col _, Ast.Sub (Ast.Int_lit 100, Ast.Col _))) -> ()
  | _ -> Alcotest.fail "aggregate expression shape");
  match List.nth q.Ast.where 3 with
  | Ast.Compare (Ast.Lt, Ast.Col { name = "o_orderdate"; _ }, Ast.Date_lit _) -> ()
  | _ -> Alcotest.fail "date comparison"

let test_parser_between_and_in () =
  let q =
    Parser.select
      "SELECT COUNT(*) FROM r WHERE x BETWEEN 3 AND 7 AND y IN (1, 2, 3) AND name LIKE '%green%'"
  in
  Alcotest.(check int) "BETWEEN expands to two conjuncts" 4 (List.length q.Ast.where);
  (match q.Ast.aggregate with Ast.Count -> () | _ -> Alcotest.fail "count");
  match List.rev q.Ast.where with
  | Ast.Like (_, "%green%") :: Ast.In_list (_, [ _; _; _ ]) :: _ -> ()
  | _ -> Alcotest.fail "IN/LIKE shape"

let test_parser_errors () =
  let expect_fail src =
    match Parser.select src with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  expect_fail "SELECT FROM r";
  expect_fail "SELECT a FROM r GROUP BY a" (* no aggregate *);
  expect_fail "SELECT SUM(x), SUM(y) FROM r" (* two aggregates *);
  expect_fail "SELECT SUM(x) FROM r WHERE";
  expect_fail "SELECT SUM(x) FROM r trailing garbage"

(* Invalid dates used to trip an [assert false] inside the parser; they
   must now surface as typed errors carrying position and source text. *)
let test_parser_bad_dates () =
  let expect_date_error src =
    match Parser.select src with
    | exception Parser.Error ({ offset; text; _ } as e) ->
        if offset <= 0 then Alcotest.failf "no position in: %s" (Parser.error_message e);
        if text = "" then Alcotest.failf "no source text in: %s" (Parser.error_message e)
    | _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  expect_date_error "SELECT SUM(x) FROM r WHERE d < DATE '1995-13-01'" (* month 13 *);
  expect_date_error "SELECT SUM(x) FROM r WHERE d < DATE '1995-04-31'" (* April 31 *);
  expect_date_error "SELECT SUM(x) FROM r WHERE d < DATE '1995-02-29'" (* not a leap year *);
  expect_date_error "SELECT SUM(x) FROM r WHERE d < DATE '1995-00-10'" (* month 0 *);
  expect_date_error "SELECT SUM(x) FROM r WHERE d < DATE 'yesterday'" (* not Y-M-D *);
  expect_date_error "SELECT SUM(x) FROM r WHERE d < DATE '1995-03'" (* two fields *);
  (* leap day on an actual leap year still parses *)
  match Parser.select "SELECT SUM(x) FROM r WHERE d < DATE '1996-02-29'" with
  | _ -> ()
  | exception Parser.Error e -> Alcotest.fail (Parser.error_message e)

let test_parser_error_positions () =
  match Parser.select "SELECT SUM(x) FROM r WHERE x @ 3" with
  | exception Parser.Error { offset = 29; _ } -> ()
  | exception Parser.Error e ->
      Alcotest.failf "expected offset 29, got: %s" (Parser.error_message e)
  | _ -> Alcotest.fail "should not parse stray '@'"

(* ------------------------------------------------------------------ *)
(* Compiler + end-to-end execution *)

let catalog () =
  [
    ( "emp",
      {
        Compiler.relation =
          rel "emp" [ "eid"; "dept"; "salary" ]
            [
              ([ v 1; Value.Str "eng"; v 100 ], 1);
              ([ v 2; Value.Str "eng"; v 220 ], 1);
              ([ v 3; Value.Str "ops"; v 150 ], 1);
              ([ v 4; Value.Str "ops"; v 90 ], 1);
            ];
        owner = Party.Alice;
      } );
    ( "bonus",
      {
        Compiler.relation =
          rel "bonus" [ "emp_id"; "amount" ]
            [ ([ v 1; v 10 ], 1); ([ v 2; v 20 ], 1); ([ v 3; v 30 ], 1) ];
        owner = Party.Bob;
      } );
  ]

let run_sql sql =
  let q = Compiler.query ~bits:32 (catalog ()) sql in
  let ctx = Context.create ~bits:32 ~seed:5L () in
  let revealed, _ = Secyan.Secure_yannakakis.run ctx q in
  let answer = Secyan.Query.revealed_answer q revealed in
  Alcotest.check Answer.testable "secure = plaintext"
    (Secyan.Query.oracle_answer q (Secyan.Query.plaintext q))
    answer;
  (q, answer)

let dept name n = ([| Value.Str name |], n)

let test_compile_sum_group_by () =
  let _, rows =
    run_sql
      "SELECT dept, SUM(salary * amount) FROM emp, bonus WHERE eid = emp_id GROUP BY dept"
  in
  (* eng: 100*10 + 220*20 = 5400; ops: 150*30 = 4500 (emp 4 has no bonus) *)
  Alcotest.check Answer.testable "sums" [ dept "eng" 5400L; dept "ops" 4500L ] rows

let test_compile_count_scalar () =
  let _, rows = run_sql "SELECT COUNT(*) FROM emp, bonus WHERE eid = emp_id" in
  Alcotest.check Answer.testable "count" [ ([||], 3L) ] rows

let test_compile_selection_private () =
  let q, rows =
    run_sql
      "SELECT dept, COUNT(*) FROM emp, bonus WHERE eid = emp_id AND salary > 120 GROUP BY dept"
  in
  Alcotest.check Answer.testable "filtered counts" [ dept "eng" 1L; dept "ops" 1L ] rows;
  (* private selection: the emp relation keeps its public cardinality *)
  let emp = List.assoc "emp" q.Secyan.Query.inputs in
  Alcotest.(check int) "size preserved" 4 (Relation.cardinality emp.Secyan.Query.relation)

let test_compile_min_max () =
  let q = Compiler.query ~bits:32 (catalog ())
      "SELECT dept, MIN(salary) FROM emp, bonus WHERE eid = emp_id GROUP BY dept"
  in
  let ctx = Context.create ~bits:32 ~seed:6L () in
  let revealed, _ = Secyan.Secure_yannakakis.run ctx q in
  let t = q.Secyan.Query.semiring in
  let decoded =
    Relation.nonzero revealed
    |> List.map (fun (tp, a) -> (Tuple.repr tp, Semiring.to_value t a))
    |> List.sort compare
  in
  (* min bonus-holding salary: eng 100, ops 150 *)
  Alcotest.(check (list (pair string (option check_i64)))) "min per dept"
    [ ("seng", Some 100L); ("sops", Some 150L) ]
    decoded;
  let qmax = Compiler.query ~bits:32 (catalog ())
      "SELECT dept, MAX(salary) FROM emp, bonus WHERE eid = emp_id GROUP BY dept"
  in
  let ctx = Context.create ~bits:32 ~seed:7L () in
  let revealed, _ = Secyan.Secure_yannakakis.run ctx qmax in
  let tmax = qmax.Secyan.Query.semiring in
  let decoded =
    Relation.nonzero revealed
    |> List.map (fun (tp, a) -> (Tuple.repr tp, Semiring.to_value tmax a))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string (option check_i64)))) "max per dept"
    [ ("seng", Some 220L); ("sops", Some 150L) ]
    decoded

let test_compile_cross_table_min () =
  (* MIN over a cross-table sum: tropical times is +, so each table holds
     one additive term *)
  let q = Compiler.query ~bits:32 (catalog ())
      "SELECT dept, MIN(salary + amount) FROM emp, bonus WHERE eid = emp_id GROUP BY dept"
  in
  let ctx = Context.create ~bits:32 ~seed:8L () in
  let revealed, _ = Secyan.Secure_yannakakis.run ctx q in
  let t = q.Secyan.Query.semiring in
  let decoded =
    Relation.nonzero revealed
    |> List.map (fun (tp, a) -> (Tuple.repr tp, Semiring.to_value t a))
    |> List.sort compare
  in
  (* eng: min(100+10, 220+20) = 110; ops: 150+30 = 180 *)
  Alcotest.(check (list (pair string (option check_i64)))) "min of cross-table sum"
    [ ("seng", Some 110L); ("sops", Some 180L) ]
    decoded

let test_compile_in_and_like () =
  let _, rows =
    run_sql "SELECT COUNT(*) FROM emp, bonus WHERE eid = emp_id AND eid IN (1, 3)"
  in
  Alcotest.check Answer.testable "IN filter" [ ([||], 2L) ] rows;
  let _, rows =
    run_sql "SELECT COUNT(*) FROM emp, bonus WHERE eid = emp_id AND dept LIKE '%ng%'"
  in
  Alcotest.check Answer.testable "LIKE filter" [ ([||], 2L) ] rows

let test_compile_duplicate_merge () =
  (* projecting emp onto dept creates duplicates that must pre-aggregate *)
  let _, rows = run_sql "SELECT dept, COUNT(*) FROM emp, bonus WHERE eid = emp_id GROUP BY dept" in
  Alcotest.check Answer.testable "counts" [ dept "eng" 2L; dept "ops" 1L ] rows

let test_compile_errors () =
  let expect_fail sql =
    match Compiler.query ~bits:32 (catalog ()) sql with
    | exception Compiler.Error _ -> ()
    | _ -> Alcotest.fail ("should not compile: " ^ sql)
  in
  expect_fail "SELECT SUM(x) FROM emp, bonus WHERE eid = emp_id" (* unknown column *);
  expect_fail "SELECT SUM(salary) FROM nosuch" (* unknown table *);
  expect_fail "SELECT dept, SUM(salary) FROM emp, bonus WHERE eid = emp_id GROUP BY eid"
  (* group-by mismatch *);
  expect_fail "SELECT SUM(salary * amount) FROM emp" (* expr spans missing table *);
  expect_fail "SELECT dept, SUM(salary) FROM emp, bonus" (* cartesian: no join condition ->
     hypergraph is still acyclic, but dept/emp_id... actually a cross join
     is acyclic; ensure compile rejects tables without join or output
     columns *)

let test_compile_q3_against_tpch () =
  (* the real Q3 via SQL on generated TPC-H data, against the hand-built
     plan from Secyan_tpch.Queries *)
  let d = Secyan_tpch.Datagen.generate ~sf:4e-5 ~seed:1L in
  let catalog =
    [
      ("customer", { Compiler.relation = d.Secyan_tpch.Datagen.customer; owner = Party.Alice });
      ("orders", { Compiler.relation = d.Secyan_tpch.Datagen.orders; owner = Party.Bob });
      ("lineitem", { Compiler.relation = d.Secyan_tpch.Datagen.lineitem; owner = Party.Alice });
    ]
  in
  let q =
    Compiler.query catalog
      "SELECT orders.orderkey, o_orderdate, o_shippriority, \
              SUM(l_extendedprice * (100 - l_discount)) \
       FROM customer, orders, lineitem \
       WHERE customer.custkey = orders.custkey AND lineitem.orderkey = orders.orderkey \
         AND c_mktsegment = 'AUTOMOBILE' \
         AND o_orderdate < DATE '1995-03-13' \
         AND l_shipdate > DATE '1995-03-13' \
       GROUP BY orders.orderkey, o_orderdate, o_shippriority"
  in
  let ctx = Secyan_tpch.Queries.context ~seed:9L () in
  let revealed, _ = Secyan.Secure_yannakakis.run ctx q in
  let reference = Secyan.Query.plaintext (Secyan_tpch.Queries.q3 d) in
  (* compare on the shared output attribute set, ignoring Q3's top-k *)
  Alcotest.check Answer.testable "sql Q3 = hand-built Q3"
    (Secyan.Query.content (Secyan_tpch.Queries.q3 d) reference)
    (Secyan.Query.content q revealed)

let () =
  Alcotest.run "secyan_sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "strings" `Quick test_lexer_strings;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "offsets" `Quick test_lexer_offsets;
        ] );
      ( "parser",
        [
          Alcotest.test_case "Q3 shape" `Quick test_parser_q3_shape;
          Alcotest.test_case "BETWEEN/IN/LIKE" `Quick test_parser_between_and_in;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "bad dates" `Quick test_parser_bad_dates;
          Alcotest.test_case "error positions" `Quick test_parser_error_positions;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "sum group-by" `Quick test_compile_sum_group_by;
          Alcotest.test_case "count scalar" `Quick test_compile_count_scalar;
          Alcotest.test_case "private selection" `Quick test_compile_selection_private;
          Alcotest.test_case "min/max" `Quick test_compile_min_max;
          Alcotest.test_case "cross-table min" `Quick test_compile_cross_table_min;
          Alcotest.test_case "IN and LIKE" `Quick test_compile_in_and_like;
          Alcotest.test_case "duplicate merge" `Quick test_compile_duplicate_merge;
          Alcotest.test_case "errors" `Quick test_compile_errors;
          Alcotest.test_case "TPC-H Q3 via SQL" `Quick test_compile_q3_against_tpch;
        ] );
    ]
