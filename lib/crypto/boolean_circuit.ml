(** Boolean circuits: the representation consumed by the garbled-circuit
    protocol (paper §5.2).

    A circuit has [n_inputs] input wires (ids [0 .. n_inputs-1]); gate [i]
    defines wire [n_inputs + i]. Gates are restricted to AND / XOR / NOT:
    with the free-XOR garbling technique only AND gates cost communication,
    so [and_count] is the figure of merit for all cost accounting. The
    builder performs constant folding so constants never appear as wires. *)

type gate =
  | And of int * int
  | Xor of int * int
  | Not of int

type t = {
  n_inputs : int;
  gates : gate array;
  outputs : int array;
  and_count : int;
}

let n_wires t = t.n_inputs + Array.length t.gates
let n_gates t = Array.length t.gates
let and_count t = t.and_count
let n_outputs t = Array.length t.outputs

(** Evaluate in the clear. [inputs] indexed by input wire id. *)
let eval t inputs =
  if Array.length inputs <> t.n_inputs then
    invalid_arg
      (Printf.sprintf "Boolean_circuit.eval: %d input bits for a circuit with %d inputs"
         (Array.length inputs) t.n_inputs);
  let values = Array.make (n_wires t) false in
  Array.blit inputs 0 values 0 t.n_inputs;
  Array.iteri
    (fun i gate ->
      let out = t.n_inputs + i in
      values.(out) <-
        (match gate with
        | And (x, y) -> values.(x) && values.(y)
        | Xor (x, y) -> values.(x) <> values.(y)
        | Not x -> not values.(x)))
    t.gates;
  Array.map (fun w -> values.(w)) t.outputs

module Builder = struct
  (** A builder value is either a known constant (folded away) or a wire. *)
  type value = Const of bool | Wire of int

  (* Gates are stored in a growable array (the builder is the hot path of
     every oblivious operator; list-based storage caused measurable GC
     churn on multi-million-gate merge circuits). *)
  type b = {
    mutable next_wire : int;
    mutable inputs : int list;       (* reverse creation order *)
    mutable gate_ops : gate array;   (* gate i writes wire gate_outs.(i) *)
    mutable gate_outs : int array;
    mutable gate_count : int;
  }

  let dummy_gate = Not 0

  let create () =
    {
      next_wire = 0;
      inputs = [];
      gate_ops = Array.make 64 dummy_gate;
      gate_outs = Array.make 64 0;
      gate_count = 0;
    }

  let fresh b =
    let w = b.next_wire in
    b.next_wire <- w + 1;
    w

  let input b =
    let w = fresh b in
    b.inputs <- w :: b.inputs;
    Wire w

  let inputs b n = Array.init n (fun _ -> input b)

  let const_ bit = Const bit

  let emit b gate =
    let w = fresh b in
    if b.gate_count = Array.length b.gate_ops then begin
      let cap = 2 * Array.length b.gate_ops in
      let ops = Array.make cap dummy_gate and outs = Array.make cap 0 in
      Array.blit b.gate_ops 0 ops 0 b.gate_count;
      Array.blit b.gate_outs 0 outs 0 b.gate_count;
      b.gate_ops <- ops;
      b.gate_outs <- outs
    end;
    b.gate_ops.(b.gate_count) <- gate;
    b.gate_outs.(b.gate_count) <- w;
    b.gate_count <- b.gate_count + 1;
    Wire w

  let bnot b = function
    | Const c -> Const (not c)
    | Wire w -> emit b (Not w)

  let bxor b x y =
    match x, y with
    | Const cx, Const cy -> Const (cx <> cy)
    | Const false, v | v, Const false -> v
    | Const true, v | v, Const true -> bnot b v
    | Wire wx, Wire wy -> if wx = wy then Const false else emit b (Xor (wx, wy))

  let band b x y =
    match x, y with
    | Const cx, Const cy -> Const (cx && cy)
    | Const false, _ | _, Const false -> Const false
    | Const true, v | v, Const true -> v
    | Wire wx, Wire wy -> if wx = wy then x else emit b (And (wx, wy))

  let bor b x y =
    (* x OR y = NOT (NOT x AND NOT y); costs one AND *)
    bnot b (band b (bnot b x) (bnot b y))

  (** [mux b ~sel x y] = if sel then x else y; one AND gate. *)
  let mux b ~sel x y = bxor b y (band b sel (bxor b x y))

  (** Remap wires so inputs occupy [0 .. k-1] in creation order and gates
      follow in creation order (which is already topological). *)
  let finalize b ~outputs =
    let inputs = List.rev b.inputs in
    let n_inputs = List.length inputs in
    let remap = Array.make b.next_wire (-1) in
    List.iteri (fun i w -> remap.(w) <- i) inputs;
    for i = 0 to b.gate_count - 1 do
      remap.(b.gate_outs.(i)) <- n_inputs + i
    done;
    let rw w =
      let w' = remap.(w) in
      assert (w' >= 0);
      w'
    in
    let gate_arr =
      Array.init b.gate_count (fun i ->
          match b.gate_ops.(i) with
          | And (x, y) -> And (rw x, rw y)
          | Xor (x, y) -> Xor (rw x, rw y)
          | Not x -> Not (rw x))
    in
    let and_count =
      Array.fold_left (fun acc g -> match g with And _ -> acc + 1 | Xor _ | Not _ -> acc) 0
        gate_arr
    in
    (* Outputs may be folded constants; materialize them as wires so that
       every circuit output is a genuine wire. A constant output is encoded
       as x XOR x (false) or NOT (x XOR x) (true) on input wire 0; circuits
       with zero inputs and constant outputs are not needed in practice. *)
    let out_arr =
      Array.map
        (function
          | Wire w -> rw w
          | Const _ -> invalid_arg "Boolean_circuit.finalize: constant output; \
                                    materialize via materialize_output first")
        outputs
    in
    { n_inputs; gates = gate_arr; outputs = out_arr; and_count }

  (** Force a possibly-constant value onto a real wire (XORing a fresh
      throwaway structure would change input count, so we synthesize the
      constant from an arbitrary existing wire). *)
  let materialize b anchor v =
    match v with
    | Wire _ -> v
    | Const c ->
        let zero = bxor b (Wire anchor) (Wire anchor) in
        (* zero is Const false due to folding; build via emit directly *)
        let z = match zero with Const _ -> emit b (Xor (anchor, anchor)) | w -> w in
        if c then bnot b z else z
end
