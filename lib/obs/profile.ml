(** Contention/GC profiling glue above the raw registry: a per-phase GC
    sampler driven by the span stream, and publishers that turn
    {!Secyan_crypto.Domain_pool} timelines and GC phase samples into
    labelled registry gauges (so one [--metrics] export carries them) and
    into JSON (so BENCH files carry them).

    The GC sampler is an observer ({!Trace_sink.t}) of the context's
    channel: every time a phase-level span opens ({!is_phase_name}), it
    cuts a [Gc.quick_stat] delta and attributes it to the phase that just
    ended.
    It composes with any other observers, in any attach order. *)

open Secyan_crypto

(* --- GC sampler ------------------------------------------------------ *)

type gc_phase = {
  phase : string;
  seconds : float;
  minor_words : float;        (** words allocated in the minor heap *)
  promoted_words : float;
  major_words : float;        (** words allocated directly in the major heap *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

type gc_sampler = {
  ctx : Context.t;
  mutable observer : Trace_sink.t;
  mutable last_stat : Gc.stat;
  mutable last_time : float;
  mutable current : string;
  mutable rev_phases : gc_phase list;
  mutable detached : bool;
}

let is_phase_name name =
  Protocol_schema.phase_of_label Protocol_schema.Unrestricted name
  <> Protocol_schema.Unrestricted

let cut s next_phase =
  let now_stat = Gc.quick_stat () in
  let now_time = Unix.gettimeofday () in
  let last = s.last_stat in
  s.rev_phases <-
    {
      phase = s.current;
      seconds = now_time -. s.last_time;
      minor_words = now_stat.Gc.minor_words -. last.Gc.minor_words;
      promoted_words = now_stat.Gc.promoted_words -. last.Gc.promoted_words;
      major_words = now_stat.Gc.major_words -. last.Gc.major_words;
      minor_collections = now_stat.Gc.minor_collections - last.Gc.minor_collections;
      major_collections = now_stat.Gc.major_collections - last.Gc.major_collections;
      compactions = now_stat.Gc.compactions - last.Gc.compactions;
    }
    :: s.rev_phases;
  s.last_stat <- now_stat;
  s.last_time <- now_time;
  s.current <- next_phase

(** Start sampling on [ctx]. Work before the first phase span is
    attributed to ["setup"]. *)
let attach_gc_sampler ctx =
  let s =
    {
      ctx;
      observer = Trace_sink.noop;
      last_stat = Gc.quick_stat ();
      last_time = Unix.gettimeofday ();
      current = "setup";
      rev_phases = [];
      detached = false;
    }
  in
  s.observer <-
    { Trace_sink.noop with enter = (fun name -> if is_phase_name name then cut s name) };
  Comm.attach ctx.Context.comm s.observer;
  s

(** Stop sampling: detach the observer, close the open phase, and return
    the samples in execution order. Idempotent. *)
let detach_gc_sampler s =
  if not s.detached then begin
    s.detached <- true;
    cut s "done";
    Comm.detach s.ctx.Context.comm s.observer
  end;
  List.rev s.rev_phases

(* --- registry publishing --------------------------------------------- *)

let labelled_gauge ~help name labels =
  Secyan_metrics.gauge ~help (Printf.sprintf "%s{%s}" name labels)

(** Publish one pool's per-domain timelines as labelled gauges
    ([secyan_domain_busy_seconds{domain="0"}], ...). Call after the runs
    of interest; gauges overwrite on re-publish. *)
let publish_pool_timelines ?(labels = "") pool =
  List.iter
    (fun (tl : Domain_pool.timeline_snapshot) ->
      let l =
        if labels = "" then Printf.sprintf "domain=\"%d\"" tl.Domain_pool.domain
        else Printf.sprintf "domain=\"%d\",%s" tl.Domain_pool.domain labels
      in
      let g name help v = Secyan_metrics.set (labelled_gauge ~help name l) v in
      g "secyan_domain_busy_seconds" "seconds spent running batch items"
        (tl.Domain_pool.busy_ns *. 1e-9);
      g "secyan_domain_queue_wait_seconds" "seconds parked or waiting on the batch barrier"
        (tl.Domain_pool.queue_wait_ns *. 1e-9);
      g "secyan_domain_lock_wait_seconds" "seconds acquiring the pool mutex"
        (tl.Domain_pool.lock_wait_ns *. 1e-9);
      g "secyan_domain_wall_seconds" "participant wall-clock (see Domain_pool.timelines)"
        (tl.Domain_pool.wall_ns *. 1e-9);
      g "secyan_domain_batches" "batches this participant claimed items of"
        (float_of_int tl.Domain_pool.batches);
      g "secyan_domain_items" "batch items this participant ran"
        (float_of_int tl.Domain_pool.items);
      g "secyan_domain_wakeups" "condition-variable wakeups"
        (float_of_int tl.Domain_pool.wakeups))
    (Domain_pool.timelines pool)

(** Publish the context's primitive counter totals as the registry
    counters [secyan_<counter>_total]. The totals are read once, at
    export: the registry never mirrors a bump. Call once per export of a
    freshly enabled registry (the counters add). *)
let publish_counters ctx =
  let totals = Context.counter_totals ctx in
  List.iter
    (fun c ->
      Secyan_metrics.add
        (Secyan_metrics.counter ~help:(Trace_sink.counter_help c)
           ("secyan_" ^ Trace_sink.counter_name c ^ "_total"))
        totals.(Trace_sink.counter_index c))
    Trace_sink.all_counters

(** Publish GC phase samples as labelled gauges
    ([secyan_gc_phase_minor_words{phase="phase:reduce"}], ...). *)
let publish_gc_phases phases =
  List.iter
    (fun p ->
      let l = Printf.sprintf "phase=%S" p.phase in
      let g name help v = Secyan_metrics.set (labelled_gauge ~help name l) v in
      g "secyan_gc_phase_seconds" "wall-clock seconds of the phase" p.seconds;
      g "secyan_gc_phase_minor_words" "minor-heap words allocated during the phase"
        p.minor_words;
      g "secyan_gc_phase_promoted_words" "words promoted during the phase" p.promoted_words;
      g "secyan_gc_phase_major_words" "major-heap words allocated during the phase"
        p.major_words;
      g "secyan_gc_phase_minor_collections" "minor collections during the phase"
        (float_of_int p.minor_collections);
      g "secyan_gc_phase_major_collections" "major collections during the phase"
        (float_of_int p.major_collections);
      g "secyan_gc_phase_compactions" "heap compactions during the phase"
        (float_of_int p.compactions))
    phases

(* --- JSON shapes for BENCH files and heartbeats ---------------------- *)

let timeline_json (tl : Domain_pool.timeline_snapshot) =
  let open Domain_pool in
  let accounted = tl.busy_ns +. tl.queue_wait_ns +. tl.lock_wait_ns in
  Json.Obj
    [
      ("domain", Json.Int tl.domain);
      ("busy_ms", Json.Float (tl.busy_ns *. 1e-6));
      ("queue_wait_ms", Json.Float (tl.queue_wait_ns *. 1e-6));
      ("lock_wait_ms", Json.Float (tl.lock_wait_ns *. 1e-6));
      ("wall_ms", Json.Float (tl.wall_ns *. 1e-6));
      ( "accounted_frac",
        Json.Float (if tl.wall_ns > 0. then accounted /. tl.wall_ns else 1.) );
      ("batches", Json.Int tl.batches);
      ("items", Json.Int tl.items);
      ("wakeups", Json.Int tl.wakeups);
    ]
