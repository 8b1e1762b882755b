(** Exact order statistics over raw samples. *)

val sorted : float list -> float array
(** Ascending copy, ready for {!percentile}. *)

val percentile : float array -> pct:int -> float
(** Nearest-rank percentile of an ascending array: the sample of 1-based
    rank [ceil (pct * n / 100)].  Always one of the samples.
    @raise Invalid_argument on an empty array or [pct] outside 1..100. *)

val median : float list -> float
(** [percentile ~pct:50] of the samples (the lower median for even
    counts). *)

val mean : float list -> float
(** [0.] on an empty list. *)
