(** The fixed-key correlation-robust label hash of the half-gates
    kernels, H(x, t) = pi(x') XOR x' with x' = (hi<<1 XOR t, lo<<1 XOR
    NOT t) and pi = AES-128 under {!Aes128.fixed_key}.

    Two kernels compute it bit-identically: an AES-NI kernel in C, and
    the pure-OCaml {!Aes128.label_hash_bytes}, which stays the
    FIPS-checked reference. The kernel is chosen once, by CPUID at
    module initialization: AES-NI on an x86-64 host that reports AES and
    SSSE3, the OCaml AES everywhere else. No option selects it.

    Labels live in [Bytes] planes: [hi] as a native int64 at the label's
    offset, [lo] 8 bytes later. No call allocates, and no offset is
    bounds-checked (callers size their planes before the loop). *)

type kernel = Aes_ni | Ocaml_aes

(** The kernel {!hash2} and {!hash4} run. *)
val kernel : kernel

(** ["aes-ni"] or ["ocaml"]. *)
val kernel_name : kernel -> string

(** Why {!kernel} was chosen, e.g. ["CPUID reports no AES-NI or SSSE3"]. *)
val kernel_reason : string

(** The evaluator's two hashes of one AND gate: [dst.(0, 16) <- H(src@a,
    tweak)] and [dst.(16, 32) <- H(src@b, tweak + 1)]. [dst] must not
    alias [src]. *)
val hash2 : Bytes.t -> int -> int -> tweak:int -> Bytes.t -> unit

(** The garbler's four hashes of one AND gate, with the free-XOR offset
    Δ read from [dst.(64, 80)]: [dst.(0, 16) <- H(src@a, tweak)],
    [dst.(16, 32) <- H(src@a XOR Δ, tweak)], [dst.(32, 48) <- H(src@b,
    tweak + 1)], [dst.(48, 64) <- H(src@b XOR Δ, tweak + 1)]. [dst] (at
    least 80 bytes) must not alias [src]. *)
val hash4 : Bytes.t -> int -> int -> tweak:int -> Bytes.t -> unit

(** {1 One kernel explicitly}

    For the differential tests and [bench gc-perf]: the contracts above
    on a named kernel. [hash1_with k ~tweak src soff dst doff] sets
    [dst.(doff, doff+16) <- H(src.(soff, soff+16), tweak)]; in place
    ([src == dst], [soff = doff]) is fine.
    @raise Invalid_argument for [Aes_ni] when {!kernel} is [Ocaml_aes]. *)

val hash1_with : kernel -> tweak:int -> Bytes.t -> int -> Bytes.t -> int -> unit
val hash2_with : kernel -> Bytes.t -> int -> int -> tweak:int -> Bytes.t -> unit
val hash4_with : kernel -> Bytes.t -> int -> int -> tweak:int -> Bytes.t -> unit
