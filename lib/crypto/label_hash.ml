(** The half-gates label hash with its two kernels (see the interface).

    The AES-NI stubs are [noalloc] with untagged ints: a garbled AND gate
    costs one C call and no allocation. The dispatch is a branch on a
    constant set at module initialization, so the stubs are called
    directly, never through a closure. *)

type kernel = Aes_ni | Ocaml_aes

external aesni_init : Bytes.t -> int = "secyan_aesni_init"

external aesni_hash1 :
  (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> unit
  = "secyan_aesni_hash1_byte" "secyan_aesni_hash1"
[@@noalloc]

external aesni_hash2 :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> Bytes.t -> unit
  = "secyan_aesni_hash2_byte" "secyan_aesni_hash2"
[@@noalloc]

external aesni_hash4 :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> Bytes.t -> unit
  = "secyan_aesni_hash4_byte" "secyan_aesni_hash4"
[@@noalloc]

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let init_status = aesni_init (Aes128.round_keys Aes128.fixed_key)
let aesni = init_status = 1
let kernel = if aesni then Aes_ni else Ocaml_aes
let kernel_name = function Aes_ni -> "aes-ni" | Ocaml_aes -> "ocaml"

let kernel_reason =
  match init_status with
  | 1 -> "CPUID reports AES-NI and SSSE3"
  | 0 -> "CPUID reports no AES-NI or SSSE3"
  | _ -> "not an x86-64 build"

(* --- the OCaml kernel: single calls of the reference hash --------- *)

let ocaml_hash1 ~tweak src soff dst doff =
  Aes128.label_hash_bytes Aes128.fixed_key ~tweak src soff dst doff

let ocaml_hash2 src a b ~tweak dst =
  ocaml_hash1 ~tweak src a dst 0;
  ocaml_hash1 ~tweak:(tweak + 1) src b dst 16

(* dst@off <- src@label XOR Δ (Δ at dst@64), then hash it in place. *)
let ocaml_hash_offset ~tweak src label dst off =
  set64u dst off (Int64.logxor (get64u src label) (get64u dst 64));
  set64u dst (off + 8) (Int64.logxor (get64u src (label + 8)) (get64u dst 72));
  ocaml_hash1 ~tweak dst off dst off

let ocaml_hash4 src a b ~tweak dst =
  ocaml_hash1 ~tweak src a dst 0;
  ocaml_hash_offset ~tweak src a dst 16;
  ocaml_hash1 ~tweak:(tweak + 1) src b dst 32;
  ocaml_hash_offset ~tweak:(tweak + 1) src b dst 48

(* --- dispatch ------------------------------------------------------ *)

let hash2 src a b ~tweak dst =
  if aesni then aesni_hash2 src a b tweak dst else ocaml_hash2 src a b ~tweak dst

let hash4 src a b ~tweak dst =
  if aesni then aesni_hash4 src a b tweak dst else ocaml_hash4 src a b ~tweak dst

let require = function
  | Aes_ni when not aesni ->
      invalid_arg ("Label_hash: the AES-NI kernel is unavailable: " ^ kernel_reason)
  | k -> k

let hash1_with k ~tweak src soff dst doff =
  match require k with
  | Aes_ni -> aesni_hash1 tweak src soff dst doff
  | Ocaml_aes -> ocaml_hash1 ~tweak src soff dst doff

let hash2_with k src a b ~tweak dst =
  match require k with
  | Aes_ni -> aesni_hash2 src a b tweak dst
  | Ocaml_aes -> ocaml_hash2 src a b ~tweak dst

let hash4_with k src a b ~tweak dst =
  match require k with
  | Aes_ni -> aesni_hash4 src a b tweak dst
  | Ocaml_aes -> ocaml_hash4 src a b ~tweak dst
