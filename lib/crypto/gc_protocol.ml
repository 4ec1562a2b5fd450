(** The two-party garbled-circuit protocol (paper §5.2).

    Callers describe a computation over words: private inputs contributed
    by one party and arithmetically shared inputs contributed by both (the
    circuit reconstructs shared values with an adder front-end, exactly as
    the paper's merge gates do). Outputs either become fresh arithmetic
    shares or are revealed to one party.

    Two backends (see DESIGN.md §2.2):
    - [Real]: Alice garbles with half-gates, Bob receives his input labels
      by OT, evaluates on labels, and the parties convert Yao shares to
      arithmetic shares with daBit-based B2A.
    - [Sim]: the circuit is evaluated in the clear inside the runtime and
      outputs are freshly re-shared; communication and rounds are accounted
      identically to [Real] (asserted by the test suite).

    The batch entry points ([eval_to_shares_batch], [eval_reveal_batch])
    implement the paper's "one garbled circuit per tuple" pattern: the
    per-item circuit is constructed once and re-used across all items
    (garbled afresh per item under [Real]), and the whole batch costs a
    constant number of rounds.

    Batches fan their independent items across the context's
    {!Domain_pool} (default 1 domain = sequential). An item sees only an
    {!item}: its own PRGs, split sequentially from the shared streams,
    and the ring — never the channel, the counters or the schema. What a
    batch costs depends on the circuit's shape alone, so the caller
    accounts it once, and results, communication, rounds and primitive
    counters are bit-identical for every pool size (see DESIGN.md §9).

    Alice is always the generator, Bob the evaluator. *)

type input =
  | Priv of { owner : Party.t; value : int64; bits : int }
      (** a private value of [owner], entering the circuit as [bits] wires *)
  | Shared of Secret_share.t
      (** an arithmetically shared ring element; the circuit sees its
          reconstruction (one adder is prepended) *)

(* An input's part of the circuit's shape: a private word of [owner],
   [bits] wires wide, or a shared ring element (one ring-wide word per
   party). Every item of a batch must have item 0's layout. *)
type slot = Priv_word of Party.t * int | Shared_word

let slot_of = function
  | Priv { owner; bits; _ } -> Priv_word (owner, bits)
  | Shared _ -> Shared_word

type built = {
  circuit : Boolean_circuit.t;
  output_widths : int list;
  layout : slot list;
  n_bob_inputs : int;  (** input wires Bob owns; Alice owns the rest *)
}

(* Everything one batch item may touch: its own randomness (Alice's
   garbling stream and the dealer's) and the ring. *)
type item = { mutable ring : Zn.t; prg_alice : Prg.t; dealer : Prg.t }

(* The value of every input wire of [bc] for an item of its layout, in
   wire order. *)
let bits_of_inputs ctx bc inputs : bool array =
  let ring_bits = Context.ring_bits ctx in
  let bits = Array.make bc.circuit.Boolean_circuit.n_inputs false in
  let pos = ref 0 in
  let push value width =
    for i = 0 to width - 1 do
      bits.(!pos + i) <- Int64.logand (Int64.shift_right_logical value i) 1L = 1L
    done;
    pos := !pos + width
  in
  List.iter
    (fun input ->
      match input with
      | Priv { value; bits; _ } -> push value bits
      | Shared s ->
          push s.Secret_share.a ring_bits;
          push s.Secret_share.b ring_bits)
    inputs;
  bits

(* Assemble the circuit from the *shape* of [inputs] (widths and kinds;
   the values are supplied separately at evaluation time). Every input
   word is declared before the first gate; the [Shared] adders follow. *)
let build_circuit ctx ~inputs ~build =
  let module Bb = Boolean_circuit.Builder in
  let b = Bb.create () in
  let ring_bits = Context.ring_bits ctx in
  let declared =
    List.map
      (fun input ->
        match input with
        | Priv { bits; _ } -> (Circuits.input_word b bits, None)
        | Shared _ ->
            let wa = Circuits.input_word b ring_bits in
            (wa, Some (Circuits.input_word b ring_bits)))
      inputs
  in
  let words =
    List.map
      (fun (w, share_b) ->
        match share_b with None -> w | Some wb -> Circuits.add_word b w wb)
      declared
  in
  let out_words = build b (Array.of_list words) in
  if out_words = [] then
    invalid_arg "Gc_protocol.build_circuit: the builder returned no output words (expected \
                 at least one)";
  let circuit = Bb.finalize b ~outputs:(Array.concat out_words) in
  let layout = List.map slot_of inputs in
  let n_bob_inputs =
    List.fold_left
      (fun acc slot ->
        match slot with
        | Priv_word (Party.Bob, w) -> acc + w
        | Shared_word -> acc + ring_bits
        | Priv_word (Party.Alice, _) -> acc)
      0 layout
  in
  { circuit; output_widths = List.map Array.length out_words; layout; n_bob_inputs }

(* Account the transfer costs of executing the circuit [times] times:
   garbled tables, garbler input labels, evaluator input OTs. Rounds are
   bumped separately, once per batch. *)
let account_executions ctx (bc : built) ~times =
  let kappa = Context.kappa in
  let comm = ctx.Context.comm in
  let n_bob_inputs = bc.n_bob_inputs in
  let n_alice_inputs = bc.circuit.Boolean_circuit.n_inputs - n_bob_inputs in
  Context.bump ctx Trace_sink.Gc_circuits times;
  Context.bump ctx Trace_sink.And_gates (times * Boolean_circuit.and_count bc.circuit);
  Context.bump ctx Trace_sink.Ots (times * n_bob_inputs);
  Comm.send comm ~from:Party.Alice
    ~bits:
      (times
      * ((Boolean_circuit.and_count bc.circuit * Cost_model.and_gate_bits ~kappa)
        + (n_alice_inputs * Cost_model.garbler_input_bits ~kappa)));
  let recv_bits, send_bits = Cost_model.evaluator_input_ot ~kappa in
  Comm.send comm ~from:Party.Bob ~bits:(times * n_bob_inputs * recv_bits);
  Comm.send comm ~from:Party.Alice ~bits:(times * n_bob_inputs * send_bits)

(* Yao-share outputs under the Real backend: Alice holds the color of the
   false label (her Boolean share); Bob holds the color of the active label.
   XOR of the two is the cleartext bit. *)
type bool_share = { alice_bit : bool; bob_bit : bool }

let run_real (it : item) (bc : built) (input_bits : bool array) : bool_share array =
  (* The executing domain's arena: garble writes its planes there and
     eval reuses them in place, so the whole item runs without per-gate
     or per-wire allocation; the planes are recycled by the next item on
     this domain (after the [bool_share]s below are built). *)
  let arena = Garbling.Arena.current () in
  let g = Garbling.garble ~arena it.prg_alice bc.circuit in
  (* Bob's labels arrive via OT (accounted by the caller); functionally he
     receives exactly the label of his input bit — selecting the active
     label per input below is that exchange, collapsed into the plane. *)
  let colors = Garbling.eval_colors ~arena g (Array.get input_bits) in
  Array.init
    (Boolean_circuit.n_outputs bc.circuit)
    (fun i ->
      { alice_bit = Garbling.decode_bit g i; bob_bit = Bytes.get colors i = '\001' })

let run_sim (it : item) (bc : built) (input_bits : bool array) : bool_share array =
  let clear = Boolean_circuit.eval bc.circuit input_bits in
  (* Fresh random Boolean sharing of each output bit. *)
  Array.map
    (fun bit ->
      let r = Prg.bool it.dealer in
      { alice_bit = r; bob_bit = bit <> r })
    clear

let run_with backend it bc input_bits =
  match backend with
  | Context.Real -> run_real it bc input_bits
  | Context.Sim -> run_sim it bc input_bits

(* daBit-based Boolean-to-arithmetic conversion of one word of Yao/Boolean
   shares: the dealer supplies each random bit r both XOR-shared and
   arithmetically shared; the parties open x XOR r and correct linearly.
   An item has no context, so this works on the ring directly, drawing r
   and its sharing from the dealer as [Secret_share.fresh_of_value]
   does. The cost is accounted by [account_b2a], once per batch. *)
let b2a (it : item) (bits : bool_share array) : Secret_share.t =
  let ring = it.ring in
  let one = Zn.norm ring 1L in
  let a = ref 0L and b = ref 0L in
  for i = 0 to Array.length bits - 1 do
    let r_bool = Prg.bool it.dealer in
    (* the dealer's fresh arithmetic sharing of r *)
    let ra = Zn.random ring it.dealer in
    let rb = Zn.sub ring (if r_bool then one else 0L) ra in
    let m = (bits.(i).alice_bit <> bits.(i).bob_bit) <> r_bool in
    (* [x] = m + [r] - 2 m [r]  (m public) *)
    let xa, xb =
      if m then (Zn.add ring (Zn.neg ring ra) one, Zn.neg ring rb) else (ra, rb)
    in
    let weight = Zn.norm ring (Int64.shift_left 1L i) in
    a := Zn.add ring !a (Zn.mul ring xa weight);
    b := Zn.add ring !b (Zn.mul ring xb weight)
  done;
  { Secret_share.a = !a; b = !b }

(* The B2A cost of [times] items, each converting one word per output
   width, priced per the ABY OT-based construction: the openings of a
   whole batch travel in one message each way (rounds bumped by the
   caller). *)
let account_b2a ctx widths ~times =
  let comm = ctx.Context.comm in
  let half_bits =
    times
    * List.fold_left
        (fun acc w -> acc + (Cost_model.b2a_word_bits ~kappa:Context.kappa ~bits:w / 2))
        0 widths
  in
  Context.bump ctx Trace_sink.Ots (times * List.fold_left ( + ) 0 widths);
  Context.bump ctx Trace_sink.B2a_words (times * List.length widths);
  if half_bits > 0 then begin
    Comm.send comm ~from:Party.Alice ~bits:half_bits;
    Comm.send comm ~from:Party.Bob ~bits:half_bits
  end

(* Slice the flat output-bit array back into words. *)
let slice_outputs widths (flat : 'a array) =
  let rec go offset = function
    | [] -> []
    | w :: rest -> Array.sub flat offset w :: go (offset + w) rest
  in
  go 0 widths

(* Batch-shape histograms for the contention profile: how large the
   parallel fan-outs are and how long each takes end to end (including
   the pool barrier). *)
let m_batch_items =
  lazy
    (Secyan_metrics.histogram
       ~help:"items per GC parallel batch (fan-out width)" "secyan_gc_batch_items")

let m_batch_seconds =
  lazy
    (Secyan_metrics.histogram
       ~help:"wall-clock seconds per GC parallel batch (pool barrier included)"
       "secyan_gc_batch_seconds")

(* Allocation-rate observability (DESIGN.md §14): minor/major heap words
   allocated per batch item, measured as GC-counter deltas on the
   executing domain (minor words are domain-local in OCaml 5, so the
   delta brackets exactly the item's own allocation). Minor words come
   from [Gc.minor_words], which is exact in native code — the
   [Gc.quick_stat] figure only advances at GC points, and an
   allocation-free item never reaches one. The regression target is
   "arena reuse holds": steady-state items of the Real backend should sit
   within a few hundred words (boxed boundary values only), not the tens
   of words *per AND gate* the boxed kernels used to cost. *)
let m_item_minor_words =
  lazy
    (Secyan_metrics.histogram
       ~help:"minor-heap words allocated per GC batch item (executing domain)"
       "secyan_gc_item_minor_words")

let m_item_major_words =
  lazy
    (Secyan_metrics.histogram
       ~help:"major-heap words allocated per GC batch item, promotions included"
       "secyan_gc_item_major_words")

(* --- batch supervision ------------------------------------------------ *)

type supervision_cause =
  | Batch_item_raised of { message : string }
  | Batch_worker_hung of { slot : int; silent_s : float }
  | Batch_shutdown of { unclaimed : int }

let supervision_cause_to_string = function
  | Batch_item_raised { message } -> Printf.sprintf "item raised: %s" message
  | Batch_worker_hung { slot; silent_s } ->
      Printf.sprintf "worker %d hung (silent %.1fs); pool poisoned, domain abandoned"
        slot silent_s
  | Batch_shutdown { unclaimed } ->
      Printf.sprintf "pool shut down mid-batch (%d items unclaimed)" unclaimed

exception
  Supervision_error of { phase : string; item : int; cause : supervision_cause }

let () =
  Printexc.register_printer (function
    | Supervision_error { phase; item; cause } ->
        Some
          (Printf.sprintf "Supervision_error { phase = %S; item = %d; %s }" phase
             item (supervision_cause_to_string cause))
    | _ -> None)

let m_supervision_failures =
  lazy
    (Secyan_metrics.counter
       ~help:"supervised GC batches failed (item fault, hang, or shutdown)"
       "secyan_supervision_failures_total")

(* Recycled item PRGs. A batch takes the whole cache for its duration
   and puts it back only when it completes, so concurrent batches never
   share an item, and a failed batch — whose abandoned or hung worker
   may still draw from its item — simply drops its items. *)
let item_cache : item array Atomic.t = Atomic.make [||]

(* The items of an [n]-item batch over [ctx] (the returned array may be
   longer; a smaller batch reuses a prefix). Child PRGs are reseeded
   *sequentially* from the shared streams in item order — exactly the
   draws [Prg.split] makes — so each item's randomness depends only on
   its index, never on scheduling or cache state. Bob's stream advances
   by one split per item too, though no item draws from it: checkpoints
   capture stream positions, so they must not depend on which streams
   the items use. *)
let take_items ctx n : item array =
  let cached = Atomic.exchange item_cache [||] in
  let ring = ctx.Context.ring in
  let items =
    if Array.length cached >= n then cached
    else
      Array.init n (fun i ->
          if i < Array.length cached then cached.(i)
          else { ring; prg_alice = Prg.create 0L; dealer = Prg.create 0L })
  in
  for i = 0 to n - 1 do
    let it = items.(i) in
    it.ring <- ring;
    Prg.split_into ctx.Context.prg_alice it.prg_alice;
    ignore (Prg.next_int64 ctx.Context.prg_bob : int64);
    Prg.split_into ctx.Context.dealer it.dealer
  done;
  items

(* Below this much known AND-gate work (items x AND gates per item) a
   plain batch runs inline on the caller: waking the pool's workers and
   meeting at the barrier costs more than the items' work saves. The
   smallest power of two above every batch size at which a fan-out over
   2, 4 or 8 domains lost to one domain, on either backend, in the
   calibration of DESIGN.md §9. *)
let inline_and_gates = 131_072

(* Run [f] over the [n] independent batch items on the context's pool.

   Each item gets an {!item} (see [take_items]) whose PRG state is a
   function of the item index alone; item code reaches nothing else of
   the context, so it cannot send, bump or open a span, and the caller
   accounts the batch. Item 0 runs on the caller — its result seeds the
   result array, so no [Option] box is ever created per item — and the
   remaining items fan out over the pool.

   [and_gates] is the AND-gate count of one item: a plain batch whose
   total is below [inline_and_gates] runs inline through the pool's
   sequential path ({!Domain_pool.run_inline}), which spawns no worker
   and charges the caller's timeline. Supervised batches always use the
   workers. *)
let map_batch ctx ~n ~and_gates (f : item -> int -> 'a) : 'a array =
  if n = 0 then [||]
  else begin
    (* Phase-boundary check: a batch never starts under a fired token. *)
    Context.check_cancel ctx;
    let metrics_on = Secyan_metrics.enabled () in
    let t_start = if metrics_on then Unix.gettimeofday () else 0. in
    let items = take_items ctx n in
    (* Global item ids for deterministic fault injection: batches are
       submitted sequentially, so [base + i] identifies this item across
       runs of the same query. Constant 0 while disarmed. *)
    let fault_base = Fault_inject.batch_base n in
    let run_item i =
      try
        Fault_inject.fire (fault_base + i);
        if metrics_on then begin
          let minor0 = Gc.minor_words () in
          let major0 = (Gc.quick_stat ()).Gc.major_words in
          let r = f items.(i) i in
          let minor1 = Gc.minor_words () in
          Secyan_metrics.observe (Lazy.force m_item_minor_words) (minor1 -. minor0);
          Secyan_metrics.observe (Lazy.force m_item_major_words)
            ((Gc.quick_stat ()).Gc.major_words -. major0);
          r
        end
        else f items.(i) i
      with e ->
        (* The claiming domain's arena may hold a half-written circuit;
           reset it so no later item garbles over dirty label material
           (DESIGN.md §15). *)
        Garbling.Arena.reset (Garbling.Arena.current ());
        raise e
    in
    let results =
      match ctx.Context.supervisor with
      | None ->
          (* Plain path: item 0 runs on the caller — its result seeds the
             array, so no per-item [Option] box — and the rest run inline
             or fan out over the pool, which polls the cancel token per
             claim. *)
          let results = Array.make n (run_item 0) in
          if n > 1 then begin
            let run =
              if n * and_gates < inline_and_gates then Domain_pool.run_inline
              else Domain_pool.run
            in
            run ~cancel:ctx.Context.cancel (Context.pool ctx) ~n:(n - 1)
              ~f:(fun i -> results.(i + 1) <- run_item (i + 1))
          end;
          results
      | Some supervisor ->
          (* Supervised path: the caller watches heartbeats instead of
             claiming items, the first fault abort-fails the batch, and
             every fault surfaces as the typed {!Supervision_error}
             naming the protocol phase. Results live in a fresh [Option]
             array (not the recycled cache), so a straggler's late write
             after an abort can never corrupt a later batch's results. *)
          let slots = Array.make n None in
          (try
             Domain_pool.run_supervised ~cancel:ctx.Context.cancel ~supervisor
               (Context.pool ctx) ~n
               ~f:(fun i -> slots.(i) <- Some (run_item i))
           with
          | Domain_pool.Pool_failure fault -> (
              Secyan_metrics.add (Lazy.force m_supervision_failures) 1;
              let phase = ctx.Context.current_label in
              match fault with
              | Domain_pool.Item_raised { item; exn } -> (
                  match exn with
                  | Deadline.Cancelled _ ->
                      (* cancellation is not a supervision failure *)
                      raise exn
                  | _ ->
                      raise
                        (Supervision_error
                           { phase; item = fault_base + item;
                             cause = Batch_item_raised
                                 { message = Printexc.to_string exn } }))
              | Domain_pool.Worker_hung { slot; item; silent_s } ->
                  (* The hung worker may resume and draw from its item;
                     the items are not put back, so no later batch reuses
                     them. The pool is already poisoned (sequential from
                     here on). *)
                  raise
                    (Supervision_error
                       { phase; item = fault_base + item;
                         cause = Batch_worker_hung { slot; silent_s } }))
          | Domain_pool.Pool_shutdown { unclaimed } ->
              Secyan_metrics.add (Lazy.force m_supervision_failures) 1;
              raise
                (Supervision_error
                   { phase = ctx.Context.current_label; item = -1;
                     cause = Batch_shutdown { unclaimed } }));
          Array.map
            (function Some r -> r | None -> assert false (* barrier: all ran *))
            slots
    in
    Atomic.set item_cache items;
    if metrics_on then begin
      Secyan_metrics.observe (Lazy.force m_batch_items) (float_of_int n);
      Secyan_metrics.observe (Lazy.force m_batch_seconds) (Unix.gettimeofday () -. t_start)
    end;
    results
  end

(* The prologue both batch entry points share: open the span [span],
   build the circuit from item 0's shape, check that every item has that
   input layout, encode every item's input bits, account the batch's
   executions and its first two rounds, then run [k] on the circuit and
   the bits inside the span. An empty batch costs nothing. *)
let with_batch ctx ~span ~entry ~(items : input list array) ~build k =
  if Array.length items = 0 then [||]
  else
    Context.with_span ctx span @@ fun () ->
    let bc = build_circuit ctx ~inputs:items.(0) ~build in
    Array.iteri
      (fun i inputs ->
        if List.map slot_of inputs <> bc.layout then
          invalid_arg
            (Printf.sprintf
               "Gc_protocol.%s: item %d's inputs differ in kind, owner or width from the \
                first item's (all items must share the circuit shape)"
               entry i))
      items;
    let all_bits = Array.map (bits_of_inputs ctx bc) items in
    account_executions ctx bc ~times:(Array.length items);
    Comm.bump_rounds ctx.Context.comm 2;
    k bc all_bits

(** Evaluate the same circuit over a batch of same-shaped input lists; each
    output word of each item becomes a fresh arithmetic share. Constant
    rounds for the whole batch. *)
let eval_to_shares_batch ctx ~items ~build : Secret_share.t array array =
  with_batch ctx ~span:"gc:shares" ~entry:"eval_to_shares_batch" ~items ~build
  @@ fun bc all_bits ->
  let backend = ctx.Context.gc_backend in
  let results =
    map_batch ctx ~n:(Array.length items) ~and_gates:(Boolean_circuit.and_count bc.circuit)
      (fun it i ->
        let out_bits = run_with backend it bc all_bits.(i) in
        let words = slice_outputs bc.output_widths out_bits in
        Array.of_list (List.map (b2a it) words))
  in
  account_b2a ctx bc.output_widths ~times:(Array.length items);
  Comm.bump_rounds ctx.Context.comm 1;
  results

(** Single-item variant. *)
let eval_to_shares ctx ~inputs ~build : Secret_share.t array =
  match eval_to_shares_batch ctx ~items:[| inputs |] ~build with
  | [| shares |] -> shares
  | _ -> assert false

(** Evaluate a batch and reveal every output word of every item to [to_]
    only (one decode message, one round). *)
let eval_reveal_batch ctx ~to_ ~items ~build : int64 array array =
  with_batch ctx ~span:"gc:reveal" ~entry:"eval_reveal_batch" ~items ~build
  @@ fun bc all_bits ->
  let n_out = Boolean_circuit.n_outputs bc.circuit in
  Comm.send ctx.Context.comm ~from:(Party.other to_) ~bits:(Array.length items * n_out);
  Comm.bump_rounds ctx.Context.comm 1;
  let backend = ctx.Context.gc_backend in
  map_batch ctx ~n:(Array.length items) ~and_gates:(Boolean_circuit.and_count bc.circuit)
    (fun it i ->
      let out_bits = run_with backend it bc all_bits.(i) in
      let words = slice_outputs bc.output_widths out_bits in
      Array.of_list
        (List.map
           (fun word ->
             Circuits.int64_of_bool_array
               (Array.map (fun bs -> bs.alice_bit <> bs.bob_bit) word))
           words))

(** Single-item variant of [eval_reveal_batch]. *)
let eval_reveal ctx ~to_ ~inputs ~build : int64 array =
  match eval_reveal_batch ctx ~to_ ~items:[| inputs |] ~build with
  | [| values |] -> values
  | _ -> assert false
