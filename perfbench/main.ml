(* The repository benchmark: one TPC-H workload per process, driven
   through the library's public entry points (Datagen, Queries,
   Secure_yannakakis), every answer checked against the plaintext
   oracle, one JSON result on the last line of standard output.

     perfbench/main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   [--trace 0] times untraced queries in a closed loop (one client, the
   next query starts when the previous one has returned) and reports the
   end-to-end metrics. [--trace 1] interleaves traced and untraced
   queries over the same loop and reports the per-layer metrics. See
   perfbench/README.md for the workloads and what each metric predicts. *)

open Secyan_crypto
open Secyan_obs
open Secyan_relational
module Datagen = Secyan_tpch.Datagen
module Queries = Secyan_tpch.Queries
module Query = Secyan.Query
module Resilient = Secyan_net.Resilient
module Stats = Perfbench.Stats

type workload = {
  name : string;
  query : Datagen.dataset -> Query.t;
  preset : string;
  backend : Context.gc_backend;
  tcp_ckpt : bool;  (** loopback TCP under [Resilient] plus a checkpoint sink *)
  dominant : string;  (** the per-layer metric predicted to dominate [query_s] *)
}

let workloads =
  [
    {
      name = "q10-sim-m"; query = Queries.q10; preset = "m"; backend = Context.Sim;
      tcp_ckpt = false; dominant = "prim.gc.s";
    };
    {
      name = "q3-real-xs"; query = Queries.q3; preset = "xs"; backend = Context.Real;
      tcp_ckpt = false; dominant = "kernel.crypto_s";
    };
    {
      name = "q18-tcp-ckpt-s"; query = (fun d -> Queries.q18 d); preset = "s";
      backend = Context.Sim; tcp_ckpt = true; dominant = "net.transfer_s";
    };
  ]

let () = assert (List.map (fun w -> w.name) workloads = Stats.workload_names)

(* Every workload runs with one domain: on a 2-core host shared with
   other guests, a 2-domain pool made the medians of whole runs swing by
   a third, following the host's load.

   Every workload runs on the TPC-H data of this seed. [--seed] seeds
   the protocol's randomness (shares, labels, PRGs, transport jitter),
   never the data: result sizes, and with them the top-k sort's rounds
   and bits, would otherwise change from seed to seed. *)
let data_seed = 20210618L

(* Set-up is repeated (at least [setup_min_reps] times, for at least
   [setup_budget_s]) and its median reported: one set-up takes
   milliseconds, too little to time once. *)
let setup_min_reps = 5
let setup_budget_s = 1.0

(* The untraced loop takes at least this many samples, so that
   [query_tail_s] (10 samples beyond it) always exists. *)
let min_samples = Stats.tail_margin + 1

(* Traced/untraced pairs of the [--trace 1] loop, at least. *)
let min_pairs = 3

let now = Unix.gettimeofday
let settle () = Gc.compact ()

(* --- set-up ---------------------------------------------------------- *)

let run_dir = Filename.concat "perfbench" "_run"

type cost = {
  datagen_s : float;
  context_s : float;  (** context, pool pre-spawn, TCP connect and resume handshake *)
  total_s : float;
}

type setup = {
  data : Datagen.dataset;
  q : Query.t;
  ctx : Context.t;
  sink : Checkpoint.sink option;
  transport : Resilient.t option;
  cost : cost;
}

let clear_dir dir = Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let remove_dir dir =
  if Sys.file_exists dir then begin
    clear_dir dir;
    Sys.rmdir dir
  end

(* Everything a user pays before the first query: data, query, context,
   the work pool and the connected, handshaken transport. *)
let setup w ~seed ~sf ~tag =
  let t0 = now () in
  let data = Datagen.generate ~sf ~seed:data_seed in
  let t1 = now () in
  let q = w.query data in
  let t2 = now () in
  let transport, sink =
    if w.tcp_ckpt then begin
      let config = { Resilient.default_config with sleep = Unix.sleepf } in
      let tr = Resilient.create ~config ~seed (Secyan_net.Transport.tcp ()) in
      Resilient.resume_handshake tr ~alice:("perfbench", 0) ~bob:("perfbench", 0);
      let dir = Filename.concat run_dir (Printf.sprintf "%s-%d-%s" w.name (Unix.getpid ()) tag) in
      (Some tr, Some (Checkpoint.sink ~dir ()))
    end
    else (None, None)
  in
  let ctx =
    Queries.context ~gc_backend:w.backend ?transport ?checkpoint:sink ~seed ()
  in
  ignore (Context.pool ctx);
  let t3 = now () in
  let cost = { datagen_s = t1 -. t0; context_s = t3 -. t2; total_s = t3 -. t0 } in
  { data; q; ctx; sink; transport; cost }

let teardown s =
  Context.shutdown_pool s.ctx;
  Context.close_transport s.ctx;
  Option.iter (fun (k : Checkpoint.sink) -> remove_dir k.Checkpoint.dir) s.sink

(* --- one checked query ----------------------------------------------- *)

(* The fields that must repeat exactly across every query of a run. *)
type exact = { a2b : int; b2a : int; rounds : int; and_gates : int }

type checker = {
  expected : (string * int64) list;  (** the plaintext oracle, in query order *)
  mutable reference : exact option;
}

let checker q =
  {
    expected =
      Query.ordered_rows q (Query.plaintext q) |> List.map (fun (t, a) -> (Tuple.repr t, a));
    reference = None;
  }

let attempted = ref 0
let failed = ref 0

let fail fmt =
  incr failed;
  Printf.ksprintf (fun msg -> Printf.eprintf "perfbench: %s\n%!" msg) fmt

let and_index = Trace_sink.counter_index Trace_sink.And_gates

(* Run [s]'s query once under [wrap] (the tracer, or nothing), timing
   the whole call; the revealed rows must equal the oracle row for row
   in order, and the exact fields must equal the checker's reference.
   [None] when the query raised or failed a check. *)
type run = Relation.t * Secyan.Secure_yannakakis.result

let checked_query (type a) s (c : checker) (wrap : (unit -> run) -> run * a) =
  incr attempted;
  let and0 = (Context.counter_totals s.ctx).(and_index) in
  let t0 = now () in
  match wrap (fun () -> Secyan.Secure_yannakakis.run s.ctx s.q) with
  | exception e ->
      fail "%s raised %s" s.q.Query.name (Printexc.to_string e);
      None
  | (revealed, r), extra ->
      let dt = now () -. t0 in
      Option.iter (fun (k : Checkpoint.sink) -> clear_dir k.Checkpoint.dir) s.sink;
      let tally = r.Secyan.Secure_yannakakis.tally in
      let exact =
        {
          a2b = tally.Comm.alice_to_bob_bits;
          b2a = tally.Comm.bob_to_alice_bits;
          rounds = tally.Comm.rounds;
          and_gates = (Context.counter_totals s.ctx).(and_index) - and0;
        }
      in
      let rows = Relation.nonzero revealed |> List.map (fun (t, a) -> (Tuple.repr t, a)) in
      if rows <> c.expected then begin
        fail "%s: revealed rows differ from the plaintext oracle" s.q.Query.name;
        None
      end
      else
        match c.reference with
        | Some ref_exact when ref_exact <> exact ->
            fail "%s: bits/rounds/AND gates differ from the first query of the run"
              s.q.Query.name;
            None
        | _ ->
            c.reference <- Some exact;
            Some (dt, exact, extra)

let untraced f = (f (), ())

(* --- per-layer figures of one traced query --------------------------- *)

let starts prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let op_family name =
  if starts "agg:" name || starts "agg1:" name then Some "agg"
  else if starts "join-constrained:" name then Some "join_constrained"
  else if starts "semijoin:" name then Some "semijoin"
  else if name = "oblivious-join" then Some "oblivious_join"
  else if starts "sort:" name then Some "sort"
  else None

let prim_family name = List.find_opt (fun f -> starts (f ^ ":") name) Stats.prim_time_families
let bits_of (t : Comm.tally) = Comm.total_bits t

let self_s (sp : Span.t) =
  sp.Span.dur_s -. List.fold_left (fun acc (c : Span.t) -> acc +. c.Span.dur_s) 0. (Span.children sp)

(* Per family: self time summed over its spans, and inclusive bits of
   its outermost spans (nested spans of the same family count once). *)
let family_totals family root =
  let secs = Hashtbl.create 8 and bits = Hashtbl.create 8 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  let rec go inside (sp : Span.t) =
    let inside =
      match family sp.Span.name with
      | None -> inside
      | Some f ->
          add secs f (self_s sp);
          if not (List.mem f inside) then add bits f (float_of_int (bits_of (Span.tally sp)));
          f :: inside
    in
    List.iter (go inside) (Span.children sp)
  in
  go [] root;
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  (get secs, get bits)

let rec spans_named name (sp : Span.t) =
  (if sp.Span.name = name then [ sp ] else [])
  @ List.concat_map (spans_named name) (Span.children sp)

let hist_sum registry name =
  match List.find_opt (fun (x : Secyan_metrics.sample) -> x.Secyan_metrics.name = name) registry with
  | Some { Secyan_metrics.value = Secyan_metrics.Histogram h; _ } -> h.Secyan_metrics.sum
  | _ -> 0.

type probe = {
  root : Span.t;
  registry : Secyan_metrics.sample list;
  timelines : Domain_pool.timeline_snapshot list;
  net : Resilient.stats option * Resilient.stats option;
  ckpt : (int * int) option;  (** snapshots and bytes written by this query *)
}

(* Attach the tracer and the metrics registry around one query. *)
let traced s f =
  Secyan_metrics.reset ();
  Secyan_metrics.set_enabled true;
  Option.iter Domain_pool.reset_timelines (Context.pool_opt s.ctx);
  let net0 = Option.map Resilient.stats s.transport in
  let ck (k : Checkpoint.sink) = (k.Checkpoint.written, k.Checkpoint.bytes_written) in
  let ck0 = Option.map ck s.sink in
  let result, root =
    Fun.protect
      ~finally:(fun () -> Secyan_metrics.set_enabled false)
      (fun () -> Trace.with_tracing ~name:s.q.Query.name s.ctx f)
  in
  let probe =
    {
      root;
      registry = Secyan_metrics.snapshot ();
      timelines = Option.fold ~none:[] ~some:Domain_pool.timelines (Context.pool_opt s.ctx);
      net = (net0, Option.map Resilient.stats s.transport);
      ckpt =
        (match (ck0, Option.map ck s.sink) with
        | Some (w0, b0), Some (w1, b1) -> Some (w1 - w0, b1 - b0)
        | _ -> None);
    }
  in
  (result, probe)

let layer_values (p : probe) =
  let root = p.root in
  let phase name =
    let sps = List.filter (fun (c : Span.t) -> c.Span.name = "phase:" ^ name) (Span.children root) in
    let sum f = List.fold_left (fun acc sp -> acc +. f sp) 0. sps in
    [
      ("phase." ^ name ^ ".s", sum (fun sp -> sp.Span.dur_s));
      ("phase." ^ name ^ ".bits", sum (fun sp -> float_of_int (bits_of (Span.tally sp))));
      ("phase." ^ name ^ ".rounds", sum (fun sp -> float_of_int (Span.tally sp).Comm.rounds));
    ]
  in
  let op_s, op_bits = family_totals op_family root in
  let prim_s, prim_bits = family_totals prim_family root in
  let counter c = float_of_int (Span.counter root c) in
  let and_gates = counter Trace_sink.And_gates in
  let per_and v = if and_gates > 0. then v /. and_gates else 0. in
  let tl f = List.fold_left (fun acc tl -> acc +. f tl) 0. p.timelines in
  let pool_wall = tl (fun t -> t.Domain_pool.wall_ns) in
  let pool_frac f = if pool_wall > 0. then tl f /. pool_wall else 0. in
  let net f =
    match p.net with
    | Some a, Some b -> float_of_int (f b - f a)
    | _ -> 0.
  in
  let transfer_s = hist_sum p.registry "secyan_net_transfer_seconds" in
  let frame_bytes = hist_sum p.registry "secyan_net_frame_bytes" in
  let written, ckpt_bytes = Option.value ~default:(0, 0) p.ckpt in
  let phase_covered =
    List.fold_left
      (fun acc (c : Span.t) -> if Profile.is_phase_name c.Span.name then acc +. c.Span.dur_s else acc)
      0. (Span.children root)
  in
  List.concat_map phase Stats.phases
  @ List.concat_map (fun f -> [ ("op." ^ f ^ ".s", op_s f); ("op." ^ f ^ ".bits", op_bits f) ]) Stats.op_families
  @ List.map (fun f -> ("prim." ^ f ^ ".s", prim_s f)) Stats.prim_time_families
  @ List.map (fun f -> ("prim." ^ f ^ ".bits", prim_bits f)) Stats.prim_bit_families
  @ [
      ("prim.and_gates", and_gates);
      ("prim.ots", counter Trace_sink.Ots);
      ("prim.oep_switches", counter Trace_sink.Oep_switches);
      ("prim.cuckoo_bins", counter Trace_sink.Cuckoo_bins);
      ("prim.b2a_words", counter Trace_sink.B2a_words);
      ("prim.gc_circuits", counter Trace_sink.Gc_circuits);
      ("kernel.and_per_s", if prim_s "gc" > 0. then and_gates /. prim_s "gc" else 0.);
      ("kernel.minor_words_per_and", per_and (hist_sum p.registry "secyan_gc_item_minor_words"));
      ("pool.busy_frac", pool_frac (fun t -> t.Domain_pool.busy_ns));
      ("pool.queue_wait_frac", pool_frac (fun t -> t.Domain_pool.queue_wait_ns));
      ("pool.lock_wait_frac", pool_frac (fun t -> t.Domain_pool.lock_wait_ns));
      ("pool.items", tl (fun t -> float_of_int t.Domain_pool.items));
      ("net.transfers", net (fun s -> s.Resilient.transfers));
      ("net.retries", net (fun s -> s.Resilient.retries));
      ("net.timeouts", net (fun s -> s.Resilient.timeouts));
      ("net.transfer_s", transfer_s);
      ("net.frame_bytes", frame_bytes);
      ("net.mb_per_s", if transfer_s > 0. then frame_bytes /. 1e6 /. transfer_s else 0.);
      ("ckpt.written", float_of_int written);
      ("ckpt.bytes", float_of_int ckpt_bytes);
      ("ckpt.s", List.fold_left (fun acc sp -> acc +. self_s sp) 0. (spans_named "checkpoint" root));
      ("trace.query_s", root.Span.dur_s);
      ("trace.unaccounted_frac", (root.Span.dur_s -. phase_covered) /. root.Span.dur_s);
    ]

(* Rounds outside [phase:order]: the part the paper says depends on the
   query alone. *)
let core_rounds (root : Span.t) =
  (Span.tally root).Comm.rounds
  - List.fold_left
      (fun acc (c : Span.t) ->
        if c.Span.name = "phase:order" then acc + (Span.tally c).Comm.rounds else acc)
      0 (Span.children root)

(* --- host facts and the result line ----------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      let lines = go [] in
      close_in ic;
      lines

let cpu_has_aes () =
  List.exists
    (fun l -> starts "flags" l && List.mem "aes" (String.split_on_char ' ' l))
    (read_lines "/proc/cpuinfo")

(* The process high-water resident set, in MB (VmHWM is in kB). *)
let peak_rss_mb () =
  List.find_map
    (fun l ->
      if starts "VmHWM:" l then Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
      else None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:0.

(* Print the result line and exit: 0 when every query passed its
   checks, 1 otherwise. *)
let emit metrics =
  let correct = !failed = 0 in
  print_endline
    (Json.to_string (Stats.result_json ~correct ~attempted:!attempted ~failed:!failed metrics));
  exit (if correct then 0 else 1)

let with_units catalogue values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> (name, v, unit)
      | None -> failwith ("perfbench: metric not measured: " ^ name))
    catalogue

(* --- the two runs ------------------------------------------------------ *)

let report name value unit note = Printf.printf "%-32s %16.6g %-6s %s\n" name value unit note

let run_untraced s c ~seconds ~setups =
  let samples = ref [] in
  let t_end = now () +. seconds in
  while now () < t_end || (List.length !samples < min_samples && !failed = 0) do
    settle ();
    match checked_query s c untraced with
    | Some (dt, _, ()) -> samples := dt :: !samples
    | None -> ()
  done;
  if !failed > 0 then []
  else
  let peak_rss_mb = peak_rss_mb () in
  let setups = setups () in
  let n = List.length !samples in
  let exact = Option.get c.reference in
  let query_s = Stats.median !samples in
  let tail = Option.get (Stats.tail !samples) in
  let bits = exact.a2b + exact.b2a in
  let metrics =
    [
      ("query_s", query_s);
      ("query_tail_s", tail.Stats.value);
      ("comm_bits_a2b", float_of_int exact.a2b);
      ("comm_bits_b2a", float_of_int exact.b2a);
      ("rounds", float_of_int exact.rounds);
      ("wan_s", Stats.wan_s ~query_s ~rounds:exact.rounds ~bits);
      ("peak_rss_mb", peak_rss_mb);
      ("setup_s", Stats.median (List.map (fun c -> c.total_s) setups));
    ]
  in
  let note = function
    | "query_s" -> Printf.sprintf "median of %d queries" n
    | "query_tail_s" ->
        Printf.sprintf "p%.1f of %d queries, %d beyond it" tail.Stats.percentile n
          Stats.tail_margin
    | "wan_s" ->
        Printf.sprintf "query_s + rounds x %.0f ms + bits / %.0f Mbit/s" (Stats.wan_rtt_s *. 1e3)
          (Stats.wan_bits_per_s /. 1e6)
    | "setup_s" -> Printf.sprintf "median of %d set-ups" (List.length setups)
    | "peak_rss_mb" -> "VmHWM of this process"
    | _ -> Printf.sprintf "exact, identical in all %d queries" n
  in
  let sorted = Array.of_list (Stats.sorted !samples) in
  Printf.printf "query seconds: min %.4f, q1 %.4f, median %.4f, q3 %.4f, max %.4f\n" sorted.(0)
    sorted.(n / 4) query_s sorted.(3 * n / 4) sorted.(n - 1);
  List.iter (fun (name, v) -> report name v (List.assoc name Stats.end_to_end) (note name)) metrics;
  with_units Stats.end_to_end metrics

let median_of key reps = Stats.median (List.map (List.assoc key) reps)

(* The next smaller preset's scale factor; a third of the smallest one
   (the presets are spaced about threefold). *)
let smaller_sf preset =
  let rec go prev = function
    | (name, sf) :: rest ->
        if name = preset then Option.value prev ~default:(sf /. 3.) else go (Some sf) rest
    | [] -> invalid_arg ("perfbench: unknown preset " ^ preset)
  in
  go None Datagen.presets

(* The paper's shape claims, from one traced query at the smaller
   scale: rounds outside the order phase do not change, and total bits
   grow with the input rows (within [Stats.linear_band]). *)
let shape_claims w s c ~seed ~big_core =
  let small = setup w ~seed ~sf:(smaller_sf w.preset) ~tag:"small" in
  let probe =
    Fun.protect
      ~finally:(fun () -> teardown small)
      (fun () ->
        settle ();
        checked_query small (checker small.q) (traced small))
  in
  match (probe, c.reference) with
  | Some (_, small_exact, p), Some big ->
      let bits_growth =
        float_of_int (big.a2b + big.b2a) /. float_of_int (small_exact.a2b + small_exact.b2a)
      in
      let rows_growth =
        float_of_int (Datagen.total_rows s.data) /. float_of_int (Datagen.total_rows small.data)
      in
      let bool b = if b then 1. else 0. in
      Printf.printf "shape: core rounds %d at sf=%g, %d here; bits grow %.3fx, input rows %.3fx\n"
        (core_rounds p.root) (smaller_sf w.preset) big_core bits_growth rows_growth;
      [
        ("shape.core_rounds_scale_free_ok", bool (big_core = core_rounds p.root));
        ("shape.linear_ok", bool (Stats.linear_ok ~bits_growth ~rows_growth));
        ("shape.bits_over_rows_growth", bits_growth /. rows_growth);
      ]
  | _ ->
      [ ("shape.core_rounds_scale_free_ok", 0.); ("shape.linear_ok", 0.);
        ("shape.bits_over_rows_growth", 0.) ]

let run_traced w s c ~seed ~seconds ~setups =
  (* The same query on the Sim backend, to split Real's GC time into
     the crypto kernels and everything Sim also does. *)
  let twin =
    if w.backend = Context.Real then begin
      let ctx = Queries.context ~gc_backend:Context.Sim ~seed () in
      ignore (Context.pool ctx);
      Some { s with ctx; sink = None; transport = None }
    end
    else None
  in
  let traced_reps = ref [] and twin_gc = ref [] and untraced_dts = ref [] and gc_deltas = ref [] in
  let core = ref 0 in
  let traced_one () =
    settle ();
    match checked_query s c (traced s) with
    | Some (_, _, probe) ->
        core := core_rounds probe.root;
        traced_reps := layer_values probe :: !traced_reps
    | None -> ()
  in
  let untraced_one () =
    settle ();
    let m0 = Gc.minor_words () and q0 = Gc.quick_stat () in
    match checked_query s c untraced with
    | Some (dt, _, ()) ->
        let q1 = Gc.quick_stat () in
        untraced_dts := dt :: !untraced_dts;
        gc_deltas :=
          [
            ("ocaml.minor_words", Gc.minor_words () -. m0);
            ("ocaml.promoted_words", q1.Gc.promoted_words -. q0.Gc.promoted_words);
            ( "ocaml.major_collections",
              float_of_int (q1.Gc.major_collections - q0.Gc.major_collections) );
          ]
          :: !gc_deltas
    | None -> ()
  in
  let twin_one t =
    settle ();
    match checked_query t c (traced t) with
    | Some (_, _, probe) -> twin_gc := List.assoc "prim.gc.s" (layer_values probe) :: !twin_gc
    | None -> ()
  in
  let t_end = now () +. seconds in
  let pairs = ref 0 in
  while (now () < t_end || !pairs < min_pairs) && !failed = 0 do
    (* alternate which side goes first, so drift favours neither *)
    if !pairs mod 2 = 0 then (traced_one (); untraced_one ())
    else (untraced_one (); traced_one ());
    Option.iter twin_one twin;
    incr pairs
  done;
  Option.iter (fun t -> Context.shutdown_pool t.ctx) twin;
  if !failed > 0 then []
  else
  let reps = !traced_reps in
  let layer key = median_of key reps in
  let shape = shape_claims w s c ~seed ~big_core:!core in
  let setups = setups () in
  let traced_s = layer "trace.query_s" in
  let crypto_s = match !twin_gc with [] -> 0. | sim -> layer "prim.gc.s" -. Stats.median sim in
  let values =
    List.map (fun (k, _) -> (k, layer k)) (List.hd reps)
    @ List.map (fun (k, _) -> (k, median_of k !gc_deltas)) (List.hd !gc_deltas)
    @ shape
    @ [
        ("tpch.datagen_s", Stats.median (List.map (fun c -> c.datagen_s) setups));
        ("tpch.input_rows", float_of_int (Datagen.total_rows s.data));
        ("setup.context_s", Stats.median (List.map (fun c -> c.context_s) setups));
        ("kernel.crypto_s", crypto_s);
        ("trace.overhead_frac", (traced_s /. Stats.median !untraced_dts) -. 1.);
      ]
  in
  let dominant = List.assoc w.dominant values /. traced_s in
  let values = values @ [ ("dominant.share", dominant) ] in
  Printf.printf "%d traced and %d untraced queries, interleaved%s\n" (List.length reps)
    (List.length !untraced_dts)
    (if twin = None then ""
     else Printf.sprintf "; %d traced on the Sim twin" (List.length !twin_gc));
  Printf.printf "dominant layer: %s takes %.1f%% of traced query_s (%.4f s of %.4f s)\n"
    w.dominant (100. *. dominant) (List.assoc w.dominant values) traced_s;
  let metrics = with_units Stats.per_layer values in
  List.iter (fun (name, v, unit) -> report name v unit "") metrics;
  metrics

(* --- entry point --------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" Stats.workload_names
   ^ ") [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let () =
  let workload = ref None and seed = ref 20210618L and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := List.find_opt (fun w -> w.name = v) workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        (match Int64.of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some x when x > 0. -> seconds := x | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with Some w -> w | None -> usage () in
  let seed = !seed in
  Printf.printf "workload %s: preset %s (data seed %Ld), %s backend, 1 domain, %s, seed %Ld\n"
    w.name w.preset data_seed
    (match w.backend with Context.Real -> "Real" | Context.Sim -> "Sim")
    (if w.tcp_ckpt then "loopback TCP + checkpoints" else "no transport")
    seed;
  Printf.printf "host: nproc=%d aes=%b\n%!" (Domain.recommended_domain_count ()) (cpu_has_aes ());
  let sf = Datagen.preset_sf w.preset in
  settle ();
  let s = setup w ~seed ~sf ~tag:"0" in
  (* More set-ups to time, each torn down at once; run after the queries
     so that they leave no trace in [peak_rss_mb]. *)
  let setups () =
    let t_end = now () +. setup_budget_s in
    let rec go acc =
      if List.length acc >= setup_min_reps && now () >= t_end then acc
      else begin
        settle ();
        let x = setup w ~seed ~sf ~tag:(string_of_int (List.length acc)) in
        teardown x;
        go (x.cost :: acc)
      end
    in
    go [ s.cost ]
  in
  let c = checker s.q in
  Printf.printf "%d input rows, %d result rows in the plaintext oracle\n%!"
    (Datagen.total_rows s.data) (List.length c.expected);
  (* The pool must exist before any timer starts. *)
  if Context.pool_opt s.ctx = None then failwith "perfbench: pool not pre-spawned";
  let metrics =
    Fun.protect
      ~finally:(fun () ->
        teardown s;
        if Sys.file_exists run_dir && Sys.readdir run_dir = [||] then Sys.rmdir run_dir)
      (fun () ->
        (* warm-up: lazy state and caches, outside every timer *)
        ignore (checked_query s c untraced);
        if !trace = 0 then
          run_untraced s c ~seconds:!seconds ~setups
        else run_traced w s c ~seed ~seconds:!seconds ~setups)
  in
  Printf.printf "failed_frac %.6g (%d of %d queries attempted)\n" 
    (float_of_int !failed /. float_of_int !attempted) !failed !attempted;
  emit metrics
