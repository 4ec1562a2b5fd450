(** AES-128 encryption (FIPS 197), pure OCaml.

    Used as a fixed-key permutation for garbled-circuit label hashing
    (the standard practice in MPC implementations such as the one the
    paper builds on: one key schedule, then one AES call per hashed
    label). The S-box is derived from the field arithmetic rather than
    embedded as a table; encryption is validated against the FIPS-197
    vectors in the test suite. Only encryption is implemented — the hash
    never decrypts.

    This is the reference and fallback kernel of {!Label_hash}: the
    AES-NI kernel is checked bit for bit against {!label_hash_bytes}, and
    hosts without AES-NI run it. Rounds run in place over a 16-int state
    held in domain-local scratch (safe under parallel garbling), the
    GF(2^8) doublings/triplings come from precomputed tables, and the
    fixed key schedule is expanded once at module initialization. *)

(* --- GF(2^8) arithmetic -------------------------------------------- *)

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

let gf_mul a b =
  let rec go a b acc =
    if b = 0 then acc
    else go (xtime a) (b lsr 1) (if b land 1 = 1 then acc lxor a else acc)
  in
  go a b 0

(* multiplicative inverse via x^254 (x^(2^8 - 2)) *)
let gf_inv a =
  if a = 0 then 0
  else begin
    let sq x = gf_mul x x in
    (* addition chain for 254 = 0b11111110 *)
    let x2 = sq a in
    let x3 = gf_mul x2 a in
    let x6 = sq x3 in
    let x7 = gf_mul x6 a in
    let x14 = sq x7 in
    let x15 = gf_mul x14 a in
    let x30 = sq x15 in
    let x31 = gf_mul x30 a in
    let x62 = sq x31 in
    let x63 = gf_mul x62 a in
    let x126 = sq x63 in
    let x127 = gf_mul x126 a in
    sq x127
  end

(* --- S-box: inverse followed by the affine transform ---------------- *)

let sbox =
  Array.init 256 (fun i ->
      let b = gf_inv i in
      let bit x n = (x lsr n) land 1 in
      let out = ref 0 in
      for n = 0 to 7 do
        let v =
          bit b n lxor bit b ((n + 4) mod 8) lxor bit b ((n + 5) mod 8)
          lxor bit b ((n + 6) mod 8) lxor bit b ((n + 7) mod 8) lxor bit 0x63 n
        in
        out := !out lor (v lsl n)
      done;
      !out)

(* MixColumns multiplier tables: x2[b] = 2*b, x3[b] = 3*b in GF(2^8). *)
let x2 = Array.init 256 xtime
let x3 = Array.init 256 (fun b -> xtime b lxor b)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* --- key schedule ---------------------------------------------------- *)

type schedule = int array array  (* 11 round keys of 16 bytes *)

let expand_key (key : Bytes.t) : schedule =
  if Bytes.length key <> 16 then
    invalid_arg
      (Printf.sprintf "Aes128.expand_key: key of %d bytes, expected exactly 16"
         (Bytes.length key));
  (* 44 words of 4 bytes *)
  let w = Array.make 44 [| 0; 0; 0; 0 |] in
  for i = 0 to 3 do
    w.(i) <-
      [|
        Char.code (Bytes.get key (4 * i));
        Char.code (Bytes.get key ((4 * i) + 1));
        Char.code (Bytes.get key ((4 * i) + 2));
        Char.code (Bytes.get key ((4 * i) + 3));
      |]
  done;
  for i = 4 to 43 do
    let temp = Array.copy w.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        (* rotword + subword + rcon *)
        let rotated = [| temp.(1); temp.(2); temp.(3); temp.(0) |] in
        let subbed = Array.map (fun b -> sbox.(b)) rotated in
        subbed.(0) <- subbed.(0) lxor rcon.((i / 4) - 1);
        subbed
      end
      else temp
    in
    w.(i) <- Array.map2 ( lxor ) w.(i - 4) temp
  done;
  Array.init 11 (fun r ->
      Array.concat [ w.(4 * r); w.((4 * r) + 1); w.((4 * r) + 2); w.((4 * r) + 3) ])

(* --- rounds ----------------------------------------------------------- *)

(* State: 16 bytes in column-major order as FIPS 197, held as an int
   array. Rounds run fully in place; SubBytes and ShiftRows are fused
   into the register reads of each round (new[r + 4c] reads
   old[r + 4((c + r) mod 4)] through the S-box), then MixColumns and
   AddRoundKey write the column back. *)
let encrypt_state (sched : schedule) (st : int array) : unit =
  let rk = sched.(0) in
  for i = 0 to 15 do
    st.(i) <- st.(i) lxor rk.(i)
  done;
  for round = 1 to 9 do
    let rk = sched.(round) in
    let s0 = sbox.(st.(0)) and s1 = sbox.(st.(5)) and s2 = sbox.(st.(10)) and s3 = sbox.(st.(15)) in
    let s4 = sbox.(st.(4)) and s5 = sbox.(st.(9)) and s6 = sbox.(st.(14)) and s7 = sbox.(st.(3)) in
    let s8 = sbox.(st.(8)) and s9 = sbox.(st.(13)) and s10 = sbox.(st.(2)) and s11 = sbox.(st.(7)) in
    let s12 = sbox.(st.(12)) and s13 = sbox.(st.(1)) and s14 = sbox.(st.(6)) and s15 = sbox.(st.(11)) in
    st.(0) <- x2.(s0) lxor x3.(s1) lxor s2 lxor s3 lxor rk.(0);
    st.(1) <- s0 lxor x2.(s1) lxor x3.(s2) lxor s3 lxor rk.(1);
    st.(2) <- s0 lxor s1 lxor x2.(s2) lxor x3.(s3) lxor rk.(2);
    st.(3) <- x3.(s0) lxor s1 lxor s2 lxor x2.(s3) lxor rk.(3);
    st.(4) <- x2.(s4) lxor x3.(s5) lxor s6 lxor s7 lxor rk.(4);
    st.(5) <- s4 lxor x2.(s5) lxor x3.(s6) lxor s7 lxor rk.(5);
    st.(6) <- s4 lxor s5 lxor x2.(s6) lxor x3.(s7) lxor rk.(6);
    st.(7) <- x3.(s4) lxor s5 lxor s6 lxor x2.(s7) lxor rk.(7);
    st.(8) <- x2.(s8) lxor x3.(s9) lxor s10 lxor s11 lxor rk.(8);
    st.(9) <- s8 lxor x2.(s9) lxor x3.(s10) lxor s11 lxor rk.(9);
    st.(10) <- s8 lxor s9 lxor x2.(s10) lxor x3.(s11) lxor rk.(10);
    st.(11) <- x3.(s8) lxor s9 lxor s10 lxor x2.(s11) lxor rk.(11);
    st.(12) <- x2.(s12) lxor x3.(s13) lxor s14 lxor s15 lxor rk.(12);
    st.(13) <- s12 lxor x2.(s13) lxor x3.(s14) lxor s15 lxor rk.(13);
    st.(14) <- s12 lxor s13 lxor x2.(s14) lxor x3.(s15) lxor rk.(14);
    st.(15) <- x3.(s12) lxor s13 lxor s14 lxor x2.(s15) lxor rk.(15)
  done;
  let rk = sched.(10) in
  let s0 = sbox.(st.(0)) and s1 = sbox.(st.(5)) and s2 = sbox.(st.(10)) and s3 = sbox.(st.(15)) in
  let s4 = sbox.(st.(4)) and s5 = sbox.(st.(9)) and s6 = sbox.(st.(14)) and s7 = sbox.(st.(3)) in
  let s8 = sbox.(st.(8)) and s9 = sbox.(st.(13)) and s10 = sbox.(st.(2)) and s11 = sbox.(st.(7)) in
  let s12 = sbox.(st.(12)) and s13 = sbox.(st.(1)) and s14 = sbox.(st.(6)) and s15 = sbox.(st.(11)) in
  st.(0) <- s0 lxor rk.(0);
  st.(1) <- s1 lxor rk.(1);
  st.(2) <- s2 lxor rk.(2);
  st.(3) <- s3 lxor rk.(3);
  st.(4) <- s4 lxor rk.(4);
  st.(5) <- s5 lxor rk.(5);
  st.(6) <- s6 lxor rk.(6);
  st.(7) <- s7 lxor rk.(7);
  st.(8) <- s8 lxor rk.(8);
  st.(9) <- s9 lxor rk.(9);
  st.(10) <- s10 lxor rk.(10);
  st.(11) <- s11 lxor rk.(11);
  st.(12) <- s12 lxor rk.(12);
  st.(13) <- s13 lxor rk.(13);
  st.(14) <- s14 lxor rk.(14);
  st.(15) <- s15 lxor rk.(15)

let encrypt_block (sched : schedule) (input : Bytes.t) : Bytes.t =
  if Bytes.length input <> 16 then
    invalid_arg
      (Printf.sprintf "Aes128.encrypt_block: block of %d bytes, expected exactly 16"
         (Bytes.length input));
  let state = Array.init 16 (fun i -> Char.code (Bytes.get input i)) in
  encrypt_state sched state;
  let out = Bytes.create 16 in
  Array.iteri (fun i b -> Bytes.set out i (Char.chr b)) state;
  out

(* --- int64-pair convenience for wire labels -------------------------- *)

(* Pack/unpack between an (hi, lo) big-endian pair and the int state,
   avoiding Bytes round-trips on the hot path. *)
let state_of_pair (st : int array) hi lo =
  for i = 0 to 7 do
    st.(i) <- Int64.to_int (Int64.logand (Int64.shift_right_logical hi (56 - (8 * i))) 0xFFL);
    st.(8 + i) <- Int64.to_int (Int64.logand (Int64.shift_right_logical lo (56 - (8 * i))) 0xFFL)
  done

let pair_of_state (st : int array) =
  let word off =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int st.(off + i))
    done;
    !v
  in
  (word 0, word 8)

(* Per-domain scratch state: parallel garblers each get their own. *)
let scratch = Domain.DLS.new_key (fun () -> Array.make 16 0)

(** The fixed key used for garbled-row hashing (a nothing-up-my-sleeve
    value), expanded once at module initialization. *)
let fixed_key : schedule =
  expand_key (Bytes.of_string "\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f")

let round_keys (sched : schedule) =
  let b = Bytes.create 176 in
  Array.iteri (fun r rk -> Array.iteri (fun i v -> Bytes.set b ((16 * r) + i) (Char.chr v)) rk) sched;
  b

(** Fixed-key hash for wire labels under an explicit (pre-expanded)
    schedule: H(x, tweak) = pi(x') XOR x' where x' = 2x XOR tweak (the
    standard correlation-robust construction). *)
let label_hash_with (sched : schedule) ~tweak (hi, lo) =
  let hi' = Int64.logxor (Int64.shift_left hi 1) tweak in
  let lo' = Int64.logxor (Int64.shift_left lo 1) (Int64.lognot tweak) in
  let st = Domain.DLS.get scratch in
  state_of_pair st hi' lo';
  encrypt_state sched st;
  let chi, clo = pair_of_state st in
  (Int64.logxor chi hi', Int64.logxor clo lo')

(* Unaligned native-endian int64 access into [Bytes]. These compile to
   plain loads/stores in native code — the operands stay unboxed, which
   is the whole point of the [Bytes]-plane variant below. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(** The label hash over [Bytes] planes: reads the 128-bit label at
    [src.(soff, soff+16)] ([hi] first, [lo] at [soff + 8], native byte
    order) and writes H(label, tweak) at [dst.(doff, doff+16)] in the
    same layout. Bit-identical to {!label_hash_with} at the same
    [tweak] value; unlike it, every intermediate stays unboxed — the
    per-gate call allocates nothing. Offsets are not bounds-checked:
    callers are the garbling inner loops, which size their planes from
    the circuit before the loop. *)
let label_hash_bytes (sched : schedule) ~tweak (src : Bytes.t) soff (dst : Bytes.t) doff =
  let tweak64 = Int64.of_int tweak in
  let hi' = Int64.logxor (Int64.shift_left (get64u src soff) 1) tweak64 in
  let lo' = Int64.logxor (Int64.shift_left (get64u src (soff + 8)) 1) (Int64.lognot tweak64) in
  let st = Domain.DLS.get scratch in
  (* [state_of_pair]/[pair_of_state] inlined by hand: calling them would
     box [hi']/[lo'] at the call boundary and allocate the result pair,
     which is exactly what this variant exists to avoid. *)
  for i = 0 to 7 do
    st.(i) <- Int64.to_int (Int64.logand (Int64.shift_right_logical hi' (56 - (8 * i))) 0xFFL);
    st.(8 + i) <- Int64.to_int (Int64.logand (Int64.shift_right_logical lo' (56 - (8 * i))) 0xFFL)
  done;
  encrypt_state sched st;
  let chi =
    Int64.logor (Int64.shift_left (Int64.of_int st.(0)) 56)
      (Int64.logor (Int64.shift_left (Int64.of_int st.(1)) 48)
         (Int64.logor (Int64.shift_left (Int64.of_int st.(2)) 40)
            (Int64.logor (Int64.shift_left (Int64.of_int st.(3)) 32)
               (Int64.logor (Int64.shift_left (Int64.of_int st.(4)) 24)
                  (Int64.logor (Int64.shift_left (Int64.of_int st.(5)) 16)
                     (Int64.logor (Int64.shift_left (Int64.of_int st.(6)) 8)
                        (Int64.of_int st.(7))))))))
  in
  let clo =
    Int64.logor (Int64.shift_left (Int64.of_int st.(8)) 56)
      (Int64.logor (Int64.shift_left (Int64.of_int st.(9)) 48)
         (Int64.logor (Int64.shift_left (Int64.of_int st.(10)) 40)
            (Int64.logor (Int64.shift_left (Int64.of_int st.(11)) 32)
               (Int64.logor (Int64.shift_left (Int64.of_int st.(12)) 24)
                  (Int64.logor (Int64.shift_left (Int64.of_int st.(13)) 16)
                     (Int64.logor (Int64.shift_left (Int64.of_int st.(14)) 8)
                        (Int64.of_int st.(15))))))))
  in
  set64u dst doff (Int64.logxor chi hi');
  set64u dst (doff + 8) (Int64.logxor clo lo')
