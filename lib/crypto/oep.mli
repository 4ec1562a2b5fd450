(** Oblivious extended permutation (paper §5.4, Mohassel–Sadeghian): map a
    shared length-M vector through a private function xi : [N] -> [M],
    producing a freshly-shared length-N vector y_i = x_{xi(i)}.

    The Benes permutation networks and the duplication layer are actually
    constructed and programmed, so switch counts (hence the accounted
    O~((M+N) log(M+N)) communication) are exact; their oblivious
    evaluation is realized through the dealer model (DESIGN.md §2.5). *)

type program

(** Program the networks realizing [xi] over [m] sources.

    @raise Invalid_argument when some [xi] value is outside [0, m). *)
val program : m:int -> int array -> program

val n_switches : program -> int

(** Reference clear-data evaluation of the programmed networks; lets the
    tests verify that [program] really realizes xi. *)
val apply_clear : program -> 'a array -> 'a array

(** Obliviously map a shared vector through [xi] held by [holder]. *)
val apply_shared :
  Context.t ->
  holder:Party.t ->
  xi:int array ->
  m:int ->
  Secret_share.t array ->
  Secret_share.t array
