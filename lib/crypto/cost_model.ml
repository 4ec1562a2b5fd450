(** Explicit communication-cost constants for the simulated primitives.

    Wherever a primitive is simulated (see DESIGN.md §2), its accounted
    communication comes from these functions, so the model is auditable in
    one place. Values follow the standard semi-honest constructions the
    paper builds on: half-gates garbling (2 kappa bits per AND gate), IKNP
    OT extension (kappa-bit column from the receiver plus the two padded
    messages from the sender), and ABY-style B2A share conversion. *)

(** Garbled table for one AND gate (half-gates: two kappa-bit rows). *)
let and_gate_bits ~kappa = 2 * kappa

(** One wire label for a garbler input. *)
let garbler_input_bits ~kappa = kappa

(** One 1-out-of-2 OT of two [msg_bits]-wide messages under IKNP extension:
    the receiver contributes a kappa-bit matrix column, the sender the two
    masked messages. *)
let ot_receiver_bits ~kappa = kappa
let ot_sender_bits ~msg_bits = 2 * msg_bits

(** Evaluator input = one OT of wire labels. *)
let evaluator_input_ot ~kappa = (ot_receiver_bits ~kappa, ot_sender_bits ~msg_bits:kappa)

(** Boolean-to-arithmetic conversion of one [bits]-wide word (ABY B2A via
    correlated OT: one OT of a [bits]-wide correction per bit). *)
let b2a_word_bits ~kappa ~bits = bits * (ot_receiver_bits ~kappa + ot_sender_bits ~msg_bits:bits)

(** PSTY19 circuit-PSI OPPRF hint: per cuckoo bin, the sender transmits a
    programmed hint of width sigma + log overhead; we charge
    (kappa + hint) bits per bin for the OPRF evaluations plus hints. *)
let opprf_bin_bits ~kappa ~sigma = kappa + sigma + 24

(** One oblivious switch of a permutation network on [bits]-wide payloads:
    one OT carrying the two swapped outputs. *)
let oep_switch_bits ~kappa ~bits = ot_receiver_bits ~kappa + ot_sender_bits ~msg_bits:(2 * bits)

(** Rough AND-gate count of one per-tuple merge/aggregate circuit over a
    [bits]-wide annotation ring. Most per-tuple circuits are
    comparison/selection logic and adders; only a fraction of the tuples
    pass through a full multiplier, so the blended figure is well below
    a schoolbook multiplier's 2 bits^2. The constants are calibrated
    against measured [And_gates] totals of the TPC-H queries at small
    scales (within ~2x in either direction). Progress-estimation only —
    protocol cost accounting always charges the exact per-circuit gate
    counts, never this figure. *)
let merge_circuit_and_gates ~bits = (bits * bits / 8) + (4 * bits)
