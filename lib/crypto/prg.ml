(** Deterministic pseudo-random generator.

    A splitmix64 stream seeds an xoshiro256** state; the combination is the
    standard recipe recommended by the xoshiro authors. Every source of
    randomness in the library flows through a [Prg.t] so that protocol runs
    are reproducible from a single seed. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let reseed t seed =
  let state = ref seed in
  t.s0 <- splitmix64 state;
  t.s1 <- splitmix64 state;
  t.s2 <- splitmix64 state;
  t.s3 <- splitmix64 state

let create seed =
  let t = { s0 = 0L; s1 = 0L; s2 = 0L; s3 = 0L } in
  reseed t seed;
  t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

(** [bits t n] returns a uniformly random non-negative value of [n] bits,
    [0 <= n <= 63]. *)
let bits t n =
  if n = 0 then 0L
  else Int64.shift_right_logical (next_int64 t) (64 - n)

(** Uniform integer in [\[0, bound)] by rejection sampling. *)
let below t bound =
  if bound <= 0 then
    invalid_arg (Printf.sprintf "Prg.below: bound = %d, expected a positive integer" bound);
  let bound64 = Int64.of_int bound in
  let rec loop () =
    let r = Int64.shift_right_logical (next_int64 t) 1 in
    let v = Int64.rem r bound64 in
    (* Reject the final partial block to avoid modulo bias. *)
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then loop ()
    else Int64.to_int v
  in
  loop ()

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Fisher-Yates shuffle of [a] in place. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(** A fresh random permutation of [\[0, n)] as an array. *)
let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

(** Derive an independent child generator; used to hand each party its own
    stream from a master seed. *)
let split t = create (next_int64 t)

(** [split_into t child] reseeds [child] in place with the derivation
    {!split} would use, consuming the same one draw from [t] — the
    allocation-free variant for callers that recycle child generators
    (the GC batch engine's recycled item PRGs). *)
let split_into t child = reseed child (next_int64 t)

(** The full generator state as four words; with {!set_state} this lets a
    checkpoint capture and later replay a stream position exactly. *)
let state t = [| t.s0; t.s1; t.s2; t.s3 |]

let set_state t a =
  if Array.length a <> 4 then
    invalid_arg
      (Printf.sprintf "Prg.set_state: %d state words, expected 4" (Array.length a));
  t.s0 <- a.(0);
  t.s1 <- a.(1);
  t.s2 <- a.(2);
  t.s3 <- a.(3)
