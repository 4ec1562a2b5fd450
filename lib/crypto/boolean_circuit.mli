(** Boolean circuits consumed by the garbled-circuit protocol: AND / XOR /
    NOT gates only, so with free-XOR garbling the AND count is the cost
    figure. Input wires occupy ids [0 .. n_inputs-1]; gate [g] defines
    wire [n_inputs + g]. The gates are flat arrays — gate [g] is
    [op.(g)] over wires [lhs.(g)] and [rhs.(g)] ([rhs.(g) = lhs.(g)] for
    [Not]) — written by the {!Builder} in this final order. *)

type op = And | Xor | Not

type t = {
  n_inputs : int;
  op : op array;
  lhs : int array;
  rhs : int array;
  outputs : int array;
  and_count : int;
}

val n_wires : t -> int
val n_gates : t -> int
val and_count : t -> int
val n_outputs : t -> int

(** Evaluate in the clear; [inputs] indexed by input wire id. *)
val eval : t -> bool array -> bool array

(** Circuit builder with constant folding (constants never become
    wires). Every input is declared before the first gate, so each gate
    is written once, in growable arrays, under its final wire id —
    builders routinely hold millions of gates. *)
module Builder : sig
  (** A builder value: a wire id or a folded constant. *)
  type value

  type b

  val create : unit -> b

  (** A fresh input wire.
      @raise Invalid_argument once a gate has been added. *)
  val input : b -> value

  val inputs : b -> int -> value array
  val const_ : bool -> value
  val bnot : b -> value -> value
  val bxor : b -> value -> value -> value
  val band : b -> value -> value -> value

  (** One AND gate. *)
  val bor : b -> value -> value -> value

  (** [mux b ~sel x y] = if sel then x else y; one AND gate. *)
  val mux : b -> sel:value -> value -> value -> value

  (** Freeze the builder: trim its gate arrays. A constant output is put
      on a fresh [0 XOR 0] gate (plus a [Not] for true), in output order,
      so every output is a wire.

      @raise Invalid_argument on a constant output of a circuit without
      inputs. *)
  val finalize : b -> outputs:value array -> t
end
