(** Aggregation of harness results into the paper's statistics.

    Table 2/3: per call site, compute a statistic (median / p99 / max)
    over all ranks and iterations, then bucket the statistics.
    Figure 2: per category, the distribution of per-site p99s, filtered
    to sites whose {e native} median is at least 10 µs. *)

type site_stats = {
  program : int;
  index : int;
  name : string;
  categories : Ksurf_kernel.Category.t list;
  count : int;
  median : float;
  p99 : float;
  max : float;
}

val site_stats : Harness.result -> site_stats array

val pooled_samples : Harness.result -> float array option
(** Every measured latency, concatenated in site order — available only
    while every site is still in its exact regime (seed scale), where
    it reproduces the historical array pipeline byte-for-byte.  [None]
    once any site has spilled to streaming; use
    [result.overall] then. *)

type statistic = Median | P99 | Max

val statistic_name : statistic -> string
val bucket_row : statistic -> site_stats array -> Ksurf_stats.Buckets.row
(** The Table 2/3 row for one environment and statistic. *)

val filter_by_native_median :
  native:site_stats array -> min_median:float -> site_stats array -> site_stats array
(** Keep sites whose counterpart in [native] has median >= [min_median]
    (the paper's 10 µs filter).  Sites are matched by (program, index). *)

val p99_by_category :
  site_stats array -> (Ksurf_kernel.Category.t * float array) list
(** Per category, the vector of per-site p99s (multi-category sites
    contribute to each of their categories) — Figure 2's violin data. *)

val category_violin :
  label:string -> Ksurf_kernel.Category.t -> site_stats array ->
  Ksurf_stats.Violin.t option
(** Violin of a category's p99s; [None] if the category has no sites. *)
