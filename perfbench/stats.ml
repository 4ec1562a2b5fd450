(* Pure helpers of the repository benchmark: the metric catalogue, order
   statistics, the fixed WAN projection, and the one-line JSON result.
   Kept apart from the harness so the benchmark's own tests can pin them
   without running a protocol. *)

module Json = Secyan_obs.Json

(* --- names --------------------------------------------------------- *)

(* A workload or metric name: a letter or digit first, then at most 63
   more letters, digits, '_', '.' or '-'. *)
let valid_name s =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let workload_names = [ "q10-sim-m"; "q3-real-xs"; "q18-tcp-ckpt-s" ]

(* (name, unit) of every metric a run prints: [end_to_end] with
   [--trace 0], [per_layer] with [--trace 1]. BENCHMARK.json lists the
   same names and units; the test suite holds the two together. *)
let end_to_end =
  [
    ("query_s", "s");
    ("query_tail_s", "s");
    ("comm_bits_a2b", "bits");
    ("comm_bits_b2a", "bits");
    ("rounds", "count");
    ("wan_s", "s");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let phases = [ "share"; "reduce"; "semijoin"; "join"; "order" ]
let op_families = [ "agg"; "join_constrained"; "semijoin"; "oblivious_join"; "sort" ]
let prim_time_families = [ "gc"; "psi"; "oprf"; "oep"; "reveal" ]
let prim_bit_families = [ "gc"; "psi"; "oep" ]

let prim_counters =
  [ "and_gates"; "ots"; "oep_switches"; "cuckoo_bins"; "b2a_words"; "gc_circuits" ]

let per_layer =
  [ ("tpch.datagen_s", "s"); ("tpch.input_rows", "rows"); ("setup.context_s", "s") ]
  @ List.concat_map
      (fun p ->
        [ ("phase." ^ p ^ ".s", "s"); ("phase." ^ p ^ ".bits", "bits");
          ("phase." ^ p ^ ".rounds", "count") ])
      phases
  @ List.concat_map (fun f -> [ ("op." ^ f ^ ".s", "s"); ("op." ^ f ^ ".bits", "bits") ]) op_families
  @ List.map (fun f -> ("prim." ^ f ^ ".s", "s")) prim_time_families
  @ List.map (fun f -> ("prim." ^ f ^ ".bits", "bits")) prim_bit_families
  @ List.map (fun c -> ("prim." ^ c, "count")) prim_counters
  @ [
      ("kernel.crypto_s", "s"); ("kernel.and_per_s", "1/s");
      ("kernel.minor_words_per_and", "words");
      ("pool.busy_frac", "frac"); ("pool.queue_wait_frac", "frac");
      ("pool.lock_wait_frac", "frac"); ("pool.items", "count");
      ("net.transfers", "count"); ("net.retries", "count"); ("net.timeouts", "count");
      ("net.transfer_s", "s"); ("net.frame_bytes", "bytes"); ("net.mb_per_s", "MB/s");
      ("ckpt.written", "count"); ("ckpt.bytes", "bytes"); ("ckpt.s", "s");
      ("ocaml.minor_words", "words"); ("ocaml.promoted_words", "words");
      ("ocaml.major_collections", "count");
      ("trace.query_s", "s"); ("trace.overhead_frac", "frac");
      ("trace.unaccounted_frac", "frac");
      ("shape.core_rounds_scale_free_ok", "bool"); ("shape.linear_ok", "bool");
      ("shape.bits_over_rows_growth", "ratio");
      ("dominant.share", "frac");
    ]

(* --- order statistics ---------------------------------------------- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Samples a tail figure must leave beyond it. *)
let tail_margin = 10

type tail = { percentile : float; value : float; samples : int }

(* The highest percentile with at least [tail_margin] samples beyond it:
   with n samples sorted ascending, the k-th (1-based) has n - k beyond
   it, so k = n - 10, reported as the nearest-rank percentile 100 k / n.
   [None] below 11 samples, where no sample qualifies. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let k = n - tail_margin in
  if k < 1 then None
  else
    Some
      { percentile = 100. *. float_of_int k /. float_of_int n; value = a.(k - 1); samples = n }

(* --- the fixed WAN profile ------------------------------------------ *)

(* One round trip of 40 ms and 100 Mbit/s each way, fixed for the life
   of the benchmark so that cuts in rounds and bits stay comparable. *)
let wan_rtt_s = 0.040
let wan_bits_per_s = 100e6

let wan_s ~query_s ~rounds ~bits =
  query_s +. (float_of_int rounds *. wan_rtt_s) +. (float_of_int bits /. wan_bits_per_s)

(* --- the shape band ------------------------------------------------- *)

(* [shape.linear_ok]: total bits must grow by the input-row growth
   between the two scales times a factor inside this band. The band
   leaves room for the logarithmic factors O~ hides (index widths, the
   top-k sort's log^2 n) and rejects quadratic growth. *)
let linear_band = (0.5, 2.0)

let linear_ok ~bits_growth ~rows_growth =
  let lo, hi = linear_band in
  let r = bits_growth /. rows_growth in
  r >= lo && r <= hi

(* --- the result line ------------------------------------------------- *)

(* The last line of a run: [correct], [attempted], [failed] and every
   metric as [{"value", "unit"}]. Values are printed with all their
   digits; a non-finite value would not be JSON and is refused. *)
let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, value, unit) ->
               if not (Float.is_finite value) then
                 invalid_arg (Printf.sprintf "Stats.result_json: %s is %f" name value);
               (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ]))
             metrics) );
    ]
