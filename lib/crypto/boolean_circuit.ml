(** Boolean circuits: the representation consumed by the garbled-circuit
    protocol (paper §5.2).

    A circuit has [n_inputs] input wires (ids [0 .. n_inputs-1]); gate [g]
    defines wire [n_inputs + g]. Gates are restricted to AND / XOR / NOT:
    with the free-XOR garbling technique only AND gates cost communication,
    so [and_count] is the figure of merit for all cost accounting. Gates
    live in three flat arrays ([op], [lhs], [rhs]); the builder writes
    them in this final layout and performs constant folding so constants
    never appear as wires. *)

type op = And | Xor | Not

type t = {
  n_inputs : int;
  op : op array;
  lhs : int array;
  rhs : int array;  (* = lhs for Not *)
  outputs : int array;
  and_count : int;
}

let n_wires t = t.n_inputs + Array.length t.op
let n_gates t = Array.length t.op
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
  for g = 0 to n_gates t - 1 do
    let x = values.(t.lhs.(g)) in
    values.(t.n_inputs + g) <-
      (match t.op.(g) with
      | And -> x && values.(t.rhs.(g))
      | Xor -> x <> values.(t.rhs.(g))
      | Not -> not x)
  done;
  Array.map (fun w -> values.(w)) t.outputs

module Builder = struct
  (** A wire id (>= 0) or one of the two negative constants below. *)
  type value = int

  let const_false = -1
  let const_true = -2

  (* The circuit under construction, in its final layout: inputs are all
     declared before the first gate, so gate [g] writes wire
     [n_inputs + g] from the start and [finalize] only trims. *)
  type b = {
    mutable n_inputs : int;
    mutable op : op array;
    mutable lhs : int array;
    mutable rhs : int array;
    mutable n_gates : int;
    mutable and_count : int;
  }

  let create () =
    {
      n_inputs = 0;
      op = Array.make 64 Not;
      lhs = Array.make 64 0;
      rhs = Array.make 64 0;
      n_gates = 0;
      and_count = 0;
    }

  let input b =
    if b.n_gates > 0 then
      invalid_arg "Boolean_circuit.Builder.input: input after the first gate (declare \
                   every input before any gate)";
    b.n_inputs <- b.n_inputs + 1;
    b.n_inputs - 1

  let inputs b n = Array.init n (fun _ -> input b)

  let const_ bit = if bit then const_true else const_false

  let emit b op x y =
    let g = b.n_gates in
    if g = Array.length b.op then begin
      let grow a fill =
        let a' = Array.make (2 * g) fill in
        Array.blit a 0 a' 0 g;
        a'
      in
      b.op <- grow b.op Not;
      b.lhs <- grow b.lhs 0;
      b.rhs <- grow b.rhs 0
    end;
    b.op.(g) <- op;
    b.lhs.(g) <- x;
    b.rhs.(g) <- y;
    b.n_gates <- g + 1;
    if op = And then b.and_count <- b.and_count + 1;
    b.n_inputs + g

  (* -3 - v swaps the two constants *)
  let bnot b v = if v < 0 then -3 - v else emit b Not v v

  let bxor b x y =
    if x < 0 then if x = const_false then y else bnot b y
    else if y < 0 then if y = const_false then x else bnot b x
    else if x = y then const_false
    else emit b Xor x y

  let band b x y =
    if x < 0 then if x = const_false then const_false else y
    else if y < 0 then if y = const_false then const_false else x
    else if x = y then x
    else emit b And x y

  let bor b x y =
    (* x OR y = NOT (NOT x AND NOT y); costs one AND *)
    bnot b (band b (bnot b x) (bnot b y))

  (** [mux b ~sel x y] = if sel then x else y; one AND gate. *)
  let mux b ~sel x y = bxor b y (band b sel (bxor b x y))

  let finalize b ~outputs =
    let outputs =
      Array.map
        (fun v ->
          if v >= 0 then v
          else begin
            if b.n_inputs = 0 then
              invalid_arg "Boolean_circuit.Builder.finalize: constant output of a circuit \
                           without inputs";
            let zero = emit b Xor 0 0 in
            if v = const_true then emit b Not zero zero else zero
          end)
        outputs
    in
    let n = b.n_gates in
    {
      n_inputs = b.n_inputs;
      op = Array.sub b.op 0 n;
      lhs = Array.sub b.lhs 0 n;
      rhs = Array.sub b.rhs 0 n;
      outputs;
      and_count = b.and_count;
    }
end
