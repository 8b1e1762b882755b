(* Exact order statistics over raw per-op samples.

   Every latency percentile the benchmark reports comes from here, never
   from a bucketed histogram: log2 buckets resolve only to a factor of
   two, far coarser than the bounds the benchmark gates on. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample such that at least [pct] percent of
   the samples are at or below it, i.e. the sample of 1-based rank
   ceil(pct * n / 100).  Integer arithmetic keeps the rank exact. *)
let percentile sorted ~pct =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if pct <= 0 || pct > 100 then invalid_arg "Stats.percentile: pct in 1..100";
  let rank = ((pct * n) + 99) / 100 in
  sorted.(max 1 rank - 1)

let median samples = percentile (sorted samples) ~pct:50

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
