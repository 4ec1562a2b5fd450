(** Boolean circuits consumed by the garbled-circuit protocol: AND / XOR /
    NOT gates only, so with free-XOR garbling the AND count is the cost
    figure. Input wires occupy ids [0 .. n_inputs-1]; gate [i] defines
    wire [n_inputs + i]. *)

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

val n_wires : t -> int
val n_gates : t -> int
val and_count : t -> int
val n_outputs : t -> int

(** Evaluate in the clear; [inputs] indexed by input wire id. *)
val eval : t -> bool array -> bool array

(** Circuit builder with constant folding (constants never become
    wires). Gates are stored in growable arrays — builders routinely hold
    millions of gates. *)
module Builder : sig
  (** A builder value: a known constant, or a wire id. *)
  type value = Const of bool | Wire of int

  type b

  val create : unit -> b

  (** A fresh input wire. *)
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

  (** Force a possibly-constant value onto a real wire ([anchor] is any
      existing input wire id); required before using it as an output. *)
  val materialize : b -> int -> value -> value

  (** Freeze the builder: inputs are remapped to the front in creation
      order, gates keep their (topological) creation order.

      @raise Invalid_argument if an output is still a folded constant. *)
  val finalize : b -> outputs:value array -> t
end
