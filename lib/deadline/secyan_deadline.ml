(** Cancellation tokens: one atomic cell per query, cooperatively
    checked everywhere the protocol can block or loop. See the .mli for
    the contract and DESIGN.md §15 for how the layers thread it. *)

type reason =
  | Expired of { budget_s : float }
  | Over_budget of { used_mb : float; budget_mb : float }
  | User of string

exception Cancelled of { reason : reason; where : string }

type t = {
  deadline_ns : int64;  (* absolute, Int64.max_int = no deadline *)
  budget_s : float;  (* the configured timeout, for the Expired reason *)
  memory_budget_mb : float;  (* <= 0. = no budget *)
  state : reason option Atomic.t;
  mutable last_gc_sample_ns : int64;
      (* GC-sample throttle. Unsynchronized on purpose: a racy read can
         only cause an extra (harmless) sample, never a missed trip —
         once any domain observes the budget exceeded it cancels via the
         atomic [state]. *)
}

let reason_to_string = function
  | Expired { budget_s } -> Printf.sprintf "deadline expired (%gs budget)" budget_s
  | Over_budget { used_mb; budget_mb } ->
      Printf.sprintf "memory budget exceeded (%.1f MiB used, %.1f MiB budget)"
        used_mb budget_mb
  | User msg -> Printf.sprintf "cancelled: %s" msg

(* --- saturating ns arithmetic ------------------------------------------ *)

let sat_add_ns a b =
  let s = Int64.add a b in
  (* Two's-complement overflow: the sum of same-signed operands flipped
     sign. Clamp toward the operands' sign. *)
  if Int64.compare b 0L > 0 && Int64.compare s a < 0 then Int64.max_int
  else if Int64.compare b 0L < 0 && Int64.compare s a > 0 then Int64.min_int
  else s

let ns_of_s s =
  if s <= 0. then 0L
  else
    let f = s *. 1e9 in
    if f >= Int64.to_float Int64.max_int then Int64.max_int else Int64.of_float f

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* --- construction ------------------------------------------------------ *)

let make ~deadline_ns ~budget_s ~memory_budget_mb =
  { deadline_ns; budget_s; memory_budget_mb; state = Atomic.make None;
    last_gc_sample_ns = 0L }

let never () =
  make ~deadline_ns:Int64.max_int ~budget_s:infinity ~memory_budget_mb:0.

let create ?timeout_s ?memory_budget_mb () =
  let deadline_ns, budget_s =
    match timeout_s with
    | None -> (Int64.max_int, infinity)
    | Some s -> (sat_add_ns (now_ns ()) (ns_of_s s), s)
  in
  let memory_budget_mb =
    match memory_budget_mb with Some mb when mb > 0. -> mb | _ -> 0.
  in
  make ~deadline_ns ~budget_s ~memory_budget_mb

let cancelled t = Atomic.get t.state

let constrained t =
  Int64.compare t.deadline_ns Int64.max_int < 0
  || t.memory_budget_mb > 0.
  || Atomic.get t.state <> None

(* --- firing ------------------------------------------------------------ *)

let cancellations_total =
  lazy
    (Secyan_metrics.counter ~help:"cancel tokens fired, any reason"
       "secyan_cancellations_total")

let deadline_expired_total =
  lazy
    (Secyan_metrics.counter ~help:"cancel tokens fired by deadline expiry"
       "secyan_deadline_expired_total")

let over_budget_total =
  lazy
    (Secyan_metrics.counter ~help:"cancel tokens fired by the memory-budget guard"
       "secyan_over_budget_total")

let count_cancel reason =
  Secyan_metrics.add (Lazy.force cancellations_total) 1;
  match reason with
  | Expired _ -> Secyan_metrics.add (Lazy.force deadline_expired_total) 1
  | Over_budget _ -> Secyan_metrics.add (Lazy.force over_budget_total) 1
  | User _ -> ()

let cancel t reason =
  let won = Atomic.compare_and_set t.state None (Some reason) in
  if won then count_cancel reason;
  won

(* Major-heap footprint in MiB. [quick_stat] reads per-domain counters
   without forcing a collection; [heap_words] is the major heap, which
   is where every allocation over 256 words (all the label planes and
   arenas) lands directly. *)
let heap_mib () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.heap_words *. (float_of_int (Sys.word_size / 8) /. 1048576.)

let gc_sample_interval_ns = 5_000_000L (* 5 ms *)

let poll t =
  match Atomic.get t.state with
  | Some _ as r -> r
  | None ->
      if not (constrained t) then None
      else begin
        let now = now_ns () in
        if Int64.compare now t.deadline_ns >= 0 then
          ignore (cancel t (Expired { budget_s = t.budget_s }));
        if
          t.memory_budget_mb > 0.
          && Int64.compare (Int64.sub now t.last_gc_sample_ns)
               gc_sample_interval_ns >= 0
        then begin
          t.last_gc_sample_ns <- now;
          let used_mb = heap_mib () in
          if used_mb > t.memory_budget_mb then
            ignore
              (cancel t (Over_budget { used_mb; budget_mb = t.memory_budget_mb }))
        end;
        Atomic.get t.state
      end

let check ?(where = "?") t =
  match poll t with None -> () | Some reason -> raise (Cancelled { reason; where })

(* --- remaining budget -------------------------------------------------- *)

let remaining_ns t =
  if Int64.compare t.deadline_ns Int64.max_int >= 0 then Int64.max_int
  else
    let r = Int64.sub t.deadline_ns (now_ns ()) in
    if Int64.compare r 0L < 0 then 0L else r

let remaining_s t =
  let r = remaining_ns t in
  if Int64.compare r Int64.max_int >= 0 then infinity
  else Int64.to_float r *. 1e-9
