(* The benchmark's own tests: the tail-percentile choice, the WAN
   projection, the name rules, the result line's JSON round trip, and
   agreement between BENCHMARK.json and the metrics a run prints. *)

open Perfbench
module Json = Secyan_obs.Json

let floats n = List.init n (fun i -> float_of_int (n - i))  (* n .. 1, unsorted *)

let test_tail () =
  Alcotest.(check bool) "10 samples: no percentile has 10 beyond it" true (Stats.tail (floats 10) = None);
  (match Stats.tail (floats 11) with
  | Some t ->
      Alcotest.(check (float 0.)) "11 samples: the smallest" 1. t.Stats.value;
      Alcotest.(check (float 1e-9)) "11 samples: p9.09" (100. /. 11.) t.Stats.percentile;
      Alcotest.(check int) "sample count" 11 t.Stats.samples
  | None -> Alcotest.fail "11 samples must give a tail");
  (match Stats.tail (floats 20) with
  | Some t ->
      Alcotest.(check (float 0.)) "20 samples: the 10th" 10. t.Stats.value;
      Alcotest.(check (float 0.)) "20 samples: p50" 50. t.Stats.percentile
  | None -> Alcotest.fail "20 samples must give a tail");
  List.iter
    (fun n ->
      match Stats.tail (floats n) with
      | Some t ->
          let beyond = List.length (List.filter (fun x -> x > t.Stats.value) (floats n)) in
          Alcotest.(check int) (Printf.sprintf "%d samples: exactly 10 beyond" n) 10 beyond
      | None -> Alcotest.fail "tail expected")
    [ 11; 37; 100; 1000 ];
  match Stats.tail (floats 1000) with
  | Some t -> Alcotest.(check (float 0.)) "1000 samples: p99" 99. t.Stats.percentile
  | None -> Alcotest.fail "tail expected"

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let test_wan () =
  Alcotest.(check (float 1e-12)) "1 s + 100 x 40 ms + 1e8 bits at 100 Mbit/s" 6.
    (Stats.wan_s ~query_s:1. ~rounds:100 ~bits:100_000_000);
  Alcotest.(check (float 0.)) "no rounds, no bits" 0.25 (Stats.wan_s ~query_s:0.25 ~rounds:0 ~bits:0)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid: " ^ n) true (Stats.valid_name n))
    (Stats.workload_names @ List.map fst Stats.end_to_end @ List.map fst Stats.per_layer);
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid: " ^ n) false (Stats.valid_name n))
    [ ""; "_lead"; ".lead"; "has space"; "semi;colon"; "caf\xc3\xa9"; String.make 65 'a' ];
  Alcotest.(check bool) "64 characters" true (Stats.valid_name (String.make 64 'a'));
  let all = List.map fst Stats.end_to_end @ List.map fst Stats.per_layer in
  Alcotest.(check int) "metric names used once" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_result_roundtrip () =
  let metrics =
    [ ("query_s", 1.2034567890123, "s"); ("rounds", 113., "count"); ("tiny", 1e-9, "s");
      ("sum", 0.1 +. 0.2, "s") ]
  in
  let line =
    Json.to_string (Stats.result_json ~correct:true ~attempted:17 ~failed:0 metrics)
  in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let get k = Option.get (Json.member k j) in
      Alcotest.(check bool) "correct" true (get "correct" = Json.Bool true);
      Alcotest.(check (option int)) "attempted" (Some 17) (Json.to_int_opt (get "attempted"));
      Alcotest.(check (option int)) "failed" (Some 0) (Json.to_int_opt (get "failed"));
      (match j with
      | Json.Obj kvs ->
          Alcotest.(check (list string)) "exactly these keys"
            [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kvs)
      | _ -> Alcotest.fail "not an object");
      List.iter
        (fun (name, value, unit) ->
          let m = Option.get (Json.member name (get "metrics")) in
          Alcotest.(check (option (float 0.))) (name ^ " value, all digits") (Some value)
            (Option.bind (Json.member "value" m) Json.to_float_opt);
          Alcotest.(check (option string)) (name ^ " unit") (Some unit)
            (Option.bind (Json.member "unit" m) Json.to_string_opt))
        metrics;
      Alcotest.check_raises "non-finite refused"
        (Invalid_argument "Stats.result_json: bad is nan") (fun () ->
          ignore (Stats.result_json ~correct:true ~attempted:1 ~failed:0 [ ("bad", Float.nan, "s") ]))

(* BENCHMARK.json at the repository root must name exactly the metrics
   and workloads the harness prints, with the same units. *)
let test_benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = match Json.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let list k = Option.get (Option.bind (Json.member k j) Json.to_list_opt) in
  let str k o = Option.get (Option.bind (Json.member k o) Json.to_string_opt) in
  let named k = List.map (fun o -> (str "name" o, str "unit" o)) (list k) in
  Alcotest.(check (list (pair string string))) "end_to_end" Stats.end_to_end (named "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Stats.per_layer (named "per_layer");
  Alcotest.(check (list string)) "workloads" Stats.workload_names
    (List.map (str "name") (list "workloads"));
  let bounds =
    List.map
      (fun o -> (str "name" o, Option.get (Option.bind (Json.member "bound" o) Json.to_float_opt)))
      (list "end_to_end")
  in
  List.iter
    (fun (n, b) -> Alcotest.(check bool) (n ^ " bound in (0, 0.25]") true (b > 0. && b <= 0.25))
    bounds;
  Alcotest.(check (float 0.)) "setup_s has the largest bound"
    (List.fold_left (fun acc (_, b) -> Float.max acc b) 0. bounds)
    (List.assoc "setup_s" bounds)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "wan_s formula" `Quick test_wan;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "result line round trip" `Quick test_result_roundtrip;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
    ]
