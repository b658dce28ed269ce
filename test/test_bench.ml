(* The bench result schema: write/read round trip, the gate evaluator
   behind [--check], and the drift comparison against a baseline. *)

module B = Crane_report.Bench_result

let result ?(bench = "readmix") ?(config = [ ("seed", 42); ("quick", 1) ]) metrics =
  { B.bench; config; metrics }

let sample =
  result
    B.
      [ higher "offload_ratio" ~digits:3 ~unit:"x" ~bound:2.0 20.0127;
        lower "errors" ~bound:0.0 ~unit:"requests" 0.0;
        lower "read_mean_ns" ~digits:0 ~unit:"ns" 200449.6;
        info "third" (1.0 /. 3.0);
        info "tiny" ~unit:"s" 1.5e-9;
        info "delta_ns" ~unit:"ns" (-371522.0);
        info "wall_ns" ~unit:"ns" 3474509182.0;
        flag "rerun_identical" true ]

let test_roundtrip () =
  (match B.of_json (B.to_json sample) with
  | Ok back -> Alcotest.(check bool) "read back equals written" true (back = sample)
  | Error e -> Alcotest.fail e);
  let text = B.to_json sample in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rounded as printed" true (contains "\"value\": 20.013,")

let prop_value_roundtrip =
  QCheck.Test.make ~name:"any finite value reads back exactly" ~count:500 QCheck.float
    (fun v ->
      QCheck.assume (Float.is_finite v);
      let r = result [ B.info "v" v ] in
      B.of_json (B.to_json r) = Ok r)

let names ms = List.map (fun m -> m.B.name) ms

let test_gate () =
  Alcotest.(check (list string)) "all bounds met" [] (names (B.gate sample));
  let at_bound = result B.[ higher "speedup" ~bound:2.0 2.0; lower "errors" ~bound:0.0 0.0 ] in
  Alcotest.(check (list string)) "a bound is inclusive" [] (names (B.gate at_bound));
  let missed_higher = result B.[ higher "speedup" ~bound:2.0 1.99; info "noise" (-5.0) ] in
  Alcotest.(check (list string)) "higher misses" [ "speedup" ] (names (B.gate missed_higher));
  let missed_lower = result B.[ lower "errors" ~bound:0.0 1.0; higher "speedup" 0.1 ] in
  Alcotest.(check (list string)) "lower misses" [ "errors" ] (names (B.gate missed_lower));
  let failed_flag = result B.[ flag "identical" false ] in
  Alcotest.(check (list string)) "false flag" [ "identical" ] (names (B.gate failed_flag))

let regressions ~baseline ~current =
  match B.drift ~baseline ~current with
  | Ok regs -> List.map (fun r -> r.B.metric) regs
  | Error e -> Alcotest.fail e

let test_drift () =
  let base = result B.[ higher "ratio" 10.0; lower "latency_ns" 100.0; info "count" 50.0 ] in
  let cur ratio latency count =
    result B.[ higher "ratio" ratio; lower "latency_ns" latency; info "count" count ]
  in
  let check msg expect current =
    Alcotest.(check (list string)) msg expect (regressions ~baseline:base ~current)
  in
  check "unchanged" [] base;
  check "at the 20% limit" [] (cur 8.0 120.0 50.0);
  check "better either way" [] (cur 15.0 10.0 50.0);
  check "informational metrics never drift" [] (cur 10.0 100.0 500.0);
  check "higher drops past tolerance" [ "ratio" ] (cur 7.9 100.0 50.0);
  check "lower rises past tolerance" [ "latency_ns" ] (cur 10.0 121.0 50.0);
  check "both" [ "ratio"; "latency_ns" ] (cur 1.0 1000.0 50.0)

let test_drift_refuses_mismatch () =
  let refused msg ~baseline ~current =
    Alcotest.(check bool) msg true (Result.is_error (B.drift ~baseline ~current))
  in
  let m = B.[ higher "ratio" 10.0 ] in
  refused "quick vs full" ~baseline:(result ~config:[ ("seed", 42); ("quick", 0) ] m)
    ~current:(result ~config:[ ("seed", 42); ("quick", 1) ] m);
  refused "another seed" ~baseline:(result ~config:[ ("seed", 1) ] m)
    ~current:(result ~config:[ ("seed", 2) ] m);
  refused "another size" ~baseline:(result ~config:[ ("requests", 3000) ] m)
    ~current:(result ~config:[ ("requests", 1500) ] m);
  refused "another bench" ~baseline:(result ~bench:"parallel" m) ~current:(result m);
  refused "a baseline metric is missing" ~baseline:(result m) ~current:(result []);
  Alcotest.(check bool) "config order does not matter" true
    (Result.is_ok
       (B.drift
          ~baseline:(result ~config:[ ("seed", 42); ("quick", 1) ] m)
          ~current:(result ~config:[ ("quick", 1); ("seed", 42) ] m)))

let suite =
  [
    ( "bench.result",
      [
        Alcotest.test_case "write/read round trip is exact" `Quick test_roundtrip;
        QCheck_alcotest.to_alcotest prop_value_roundtrip;
        Alcotest.test_case "gate fails a missed bound" `Quick test_gate;
        Alcotest.test_case "drift past tolerance, worse way only" `Quick test_drift;
        Alcotest.test_case "drift refuses unlike configurations" `Quick
          test_drift_refuses_mismatch;
      ] );
  ]
