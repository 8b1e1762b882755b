(* The benchmark's percentiles are exact nearest-rank order statistics. *)

let pct samples p = Stats.percentile (Stats.sorted samples) ~pct:p
let check name want got = Alcotest.(check (float 0.)) name want got

let test_nearest_rank () =
  let s = List.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100" 50. (pct s 50);
  check "p99 of 1..100" 99. (pct s 99);
  check "p100 is the max" 100. (pct s 100);
  check "p1 is the min" 1. (pct s 1)

let test_rank_rounds_up () =
  let s = [ 4.; 1.; 3.; 2. ] in
  (* ceil(0.5 * 4) = rank 2; ceil(0.99 * 4) = rank 4 *)
  check "p50 of 4" 2. (pct s 50);
  check "p99 of 4" 4. (pct s 99);
  check "p26 of 4" 2. (pct s 26);
  check "p25 of 4" 1. (pct s 25)

let test_exact_at_1000 () =
  (* 1000 samples: p99 is rank 990, with 10 samples beyond it — no float
     rounding may shift the rank *)
  let s = List.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p99 of 1000" 990. (pct s 99);
  check "p50 of 1000" 500. (pct s 50)

let test_single_and_empty () =
  check "single sample" 7.5 (pct [ 7.5 ] 99);
  check "median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (pct [] 50))

let () =
  Alcotest.run "perfbench_stats"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "rank rounds up" `Quick test_rank_rounds_up;
          Alcotest.test_case "exact at n=1000" `Quick test_exact_at_1000;
          Alcotest.test_case "single and empty" `Quick test_single_and_empty;
        ] );
    ]
