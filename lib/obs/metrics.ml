(** Exporters over the {!Secyan_metrics} registry: pretty tables for
    terminals, JSONL for machine diffing, and Prometheus text exposition
    for scrapers. The registry itself (handles, recording, the enable
    flag) lives at the bottom of the dependency chain so the crypto and
    net hot paths can record into it; callers enable, reset and snapshot
    it through [Secyan_metrics] directly. *)

type format = Pretty | Jsonl | Prometheus

(* --- helpers --------------------------------------------------------- *)

(* Upper bound of the bucket holding quantile [q] — the usual
   fixed-bucket estimate (exact value unknowable inside a bucket). *)
let quantile (h : Secyan_metrics.histogram_snapshot) q =
  if h.Secyan_metrics.count = 0 then 0.
  else begin
    let target =
      int_of_float (Float.round (q *. float_of_int h.Secyan_metrics.count)) |> max 1
    in
    let n_upper = Array.length h.Secyan_metrics.upper in
    let rec go i acc =
      if i >= n_upper then infinity
      else
        let acc = acc + h.Secyan_metrics.counts.(i) in
        if acc >= target then h.Secyan_metrics.upper.(i) else go (i + 1) acc
    in
    go 0 0
  end

let mean (h : Secyan_metrics.histogram_snapshot) =
  if h.Secyan_metrics.count = 0 then 0.
  else h.Secyan_metrics.sum /. float_of_int h.Secyan_metrics.count

(* A metric name with optional embedded Prometheus labels
   ("secyan_domain_busy_seconds{domain=\"2\"}"): the base name carries
   the TYPE/HELP lines. *)
let base_name name =
  match String.index_opt name '{' with
  | None -> name
  | Some i -> String.sub name 0 i

(* --- pretty ---------------------------------------------------------- *)

let pp_value ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%.6g" v

let pretty ppf samples =
  let open Secyan_metrics in
  Format.fprintf ppf "%-44s %-10s %s@." "metric" "kind" "value";
  Format.fprintf ppf "%s@." (String.make 100 '-');
  List.iter
    (fun s ->
      match s.value with
      | Counter n -> Format.fprintf ppf "%-44s %-10s %d@." s.name "counter" n
      | Gauge v -> Format.fprintf ppf "%-44s %-10s %a@." s.name "gauge" pp_value v
      | Histogram h ->
          Format.fprintf ppf "%-44s %-10s count %d  sum %a  mean %a  p50 %a  p90 %a  p99 %a@."
            s.name "histogram" h.count pp_value h.sum pp_value (mean h) pp_value
            (quantile h 0.50) pp_value (quantile h 0.90) pp_value (quantile h 0.99))
    samples

(* --- JSONL ----------------------------------------------------------- *)

let sample_to_json (s : Secyan_metrics.sample) =
  let open Secyan_metrics in
  let fields =
    match s.value with
    | Counter n -> [ ("kind", Json.Str "counter"); ("value", Json.Int n) ]
    | Gauge v -> [ ("kind", Json.Str "gauge"); ("value", Json.Float v) ]
    | Histogram h ->
        [
          ("kind", Json.Str "histogram");
          ("count", Json.Int h.count);
          ("sum", Json.Float h.sum);
          ("mean", Json.Float (mean h));
          ("p50", Json.Float (quantile h 0.50));
          ("p90", Json.Float (quantile h 0.90));
          ("p99", Json.Float (quantile h 0.99));
          ( "buckets",
            Json.List
              (List.filter_map Fun.id
                 (List.init (Array.length h.counts) (fun i ->
                      if h.counts.(i) = 0 then None
                      else
                        Some
                          (Json.Obj
                             [
                               ( "le",
                                 if i < Array.length h.upper then Json.Float h.upper.(i)
                                 else Json.Str "+Inf" );
                               ("count", Json.Int h.counts.(i));
                             ])))) );
        ]
  in
  Json.Obj (("name", Json.Str s.name) :: fields)

let jsonl ppf samples =
  List.iter (fun s -> Format.fprintf ppf "%s@." (Json.to_string (sample_to_json s))) samples

(* --- Prometheus text format ------------------------------------------ *)

(* %h-style float: integers print bare, +Inf prints as "+Inf". *)
let prom_float v =
  if v = infinity then "+Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prometheus ppf samples =
  let open Secyan_metrics in
  let seen_base = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let base = base_name s.name in
      let kind =
        match s.value with Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"
      in
      if not (Hashtbl.mem seen_base base) then begin
        Hashtbl.replace seen_base base ();
        Format.fprintf ppf "# HELP %s %s@." base s.help;
        Format.fprintf ppf "# TYPE %s %s@." base kind
      end;
      match s.value with
      | Counter n -> Format.fprintf ppf "%s %d@." s.name n
      | Gauge v -> Format.fprintf ppf "%s %s@." s.name (prom_float v)
      | Histogram h ->
          (* cumulative le-buckets, as the exposition format requires *)
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i < Array.length h.upper then prom_float h.upper.(i) else "+Inf"
              in
              (* suppress interior empty buckets to keep the output
                 readable; first, last, and non-empty buckets remain *)
              if c > 0 || i = 0 || i = Array.length h.counts - 1 then
                Format.fprintf ppf "%s_bucket{le=\"%s\"} %d@." s.name le !cum)
            h.counts;
          Format.fprintf ppf "%s_sum %s@." s.name (prom_float h.sum);
          Format.fprintf ppf "%s_count %d@." s.name h.count)
    samples

(* --- entry point ----------------------------------------------------- *)

(** Render the current registry snapshot in [format]. *)
let export format ppf =
  let samples = Secyan_metrics.snapshot () in
  (match format with
  | Pretty -> pretty ppf samples
  | Jsonl -> jsonl ppf samples
  | Prometheus -> prometheus ppf samples);
  Format.pp_print_flush ppf ()

let export_string format =
  let buf = Buffer.create 4096 in
  export format (Format.formatter_of_buffer buf);
  Buffer.contents buf
