(** Typed message envelope: the trust boundary for everything a peer
    sends inside a {!Frame} payload.

    Every protocol-level message travels as one envelope:

    {v
      offset  size  field
      0       1     envelope format version (currently 1)
      1       1     message kind tag
      2       4     declared body length, little-endian
      6       n     body
    v}

    The declared length is validated against the kind's hard cap {e
    before} any body is copied or buffered, so a peer lying about sizes
    is rejected with a typed error instead of driving an allocation. The
    version byte makes the format evolvable: an unknown version is a typed
    rejection, never a guess. The envelope deliberately carries no CRC —
    it rides inside a {!Frame}, whose CRC-32 already covers it; what the
    envelope adds is {e semantic} validation (kind, size, version) of
    frames that are bitwise intact but wrong, which is exactly what a
    Byzantine peer sends and a checksum cannot catch. *)

type kind = Hello | Share | Ot | Oprf | Psi | Oep | Gc | Reveal | Op

let all_kinds = [ Hello; Share; Ot; Oprf; Psi; Oep; Gc; Reveal; Op ]

let kind_name = function
  | Hello -> "hello"
  | Share -> "share"
  | Ot -> "ot"
  | Oprf -> "oprf"
  | Psi -> "psi"
  | Oep -> "oep"
  | Gc -> "gc"
  | Reveal -> "reveal"
  | Op -> "op"

let kind_tag = function
  | Hello -> 0
  | Share -> 1
  | Ot -> 2
  | Oprf -> 3
  | Psi -> 4
  | Oep -> 5
  | Gc -> 6
  | Reveal -> 7
  | Op -> 8

let kind_of_tag = function
  | 0 -> Some Hello
  | 1 -> Some Share
  | 2 -> Some Ot
  | 3 -> Some Oprf
  | 4 -> Some Psi
  | 5 -> Some Oep
  | 6 -> Some Gc
  | 7 -> Some Reveal
  | 8 -> Some Op
  | _ -> None

let version = 1
let header_len = 6

(* Hard cap on one envelope body (4 MiB). Larger logical messages are
   chunked by the sender (see [Context.transport_observer]); a declared
   length above the cap is a protocol violation, rejected before
   allocation. *)
let max_body = 1 lsl 22

(* Handshake hellos are tiny (a session id, an epoch, a version); a
   "hello" claiming kilobytes is an attack, not a session id. *)
let max_hello = 4096

let kind_cap = function Hello -> max_hello | _ -> max_body

type error =
  | Bad_version of { got : int }
  | Unknown_kind of { tag : int }
  | Truncated of { have : int }  (** payload shorter than the 6-byte header *)
  | Length_mismatch of { declared : int; actual : int }
  | Oversized of { kind : kind; declared : int; limit : int }

let error_to_string = function
  | Bad_version { got } -> Printf.sprintf "envelope version %d (expected %d)" got version
  | Unknown_kind { tag } -> Printf.sprintf "unknown message kind tag %d" tag
  | Truncated { have } ->
      Printf.sprintf "truncated envelope: %d bytes, header needs %d" have header_len
  | Length_mismatch { declared; actual } ->
      Printf.sprintf "length field lies: declares %d body bytes, %d present" declared actual
  | Oversized { kind; declared; limit } ->
      Printf.sprintf "oversized %s: declares %d body bytes, cap is %d" (kind_name kind)
        declared limit

let encode ~kind body =
  let n = Bytes.length body in
  if n > kind_cap kind then
    invalid_arg
      (Printf.sprintf "Envelope.encode: %s body of %d bytes exceeds cap %d" (kind_name kind)
         n (kind_cap kind));
  let b = Bytes.create (header_len + n) in
  Bytes.set b 0 (Char.chr version);
  Bytes.set b 1 (Char.chr (kind_tag kind));
  Bytes.set b 2 (Char.chr (n land 0xFF));
  Bytes.set b 3 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 4 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 5 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.blit body 0 b header_len n;
  b

(* Validate version, kind, and declared length from the header alone —
   the pre-allocation gate. Safe to call on any payload. *)
let check_header b =
  let have = Bytes.length b in
  if have < header_len then Error (Truncated { have })
  else
    let v = Char.code (Bytes.get b 0) in
    if v <> version then Error (Bad_version { got = v })
    else
      let tag = Char.code (Bytes.get b 1) in
      match kind_of_tag tag with
      | None -> Error (Unknown_kind { tag })
      | Some kind ->
          let declared =
            Char.code (Bytes.get b 2)
            lor (Char.code (Bytes.get b 3) lsl 8)
            lor (Char.code (Bytes.get b 4) lsl 16)
            lor (Char.code (Bytes.get b 5) lsl 24)
          in
          if declared < 0 || declared > kind_cap kind then
            Error (Oversized { kind; declared; limit = kind_cap kind })
          else Ok (kind, declared)

let decode b =
  match check_header b with
  | Error e -> Error e
  | Ok (kind, declared) ->
      let actual = Bytes.length b - header_len in
      if declared <> actual then Error (Length_mismatch { declared; actual })
      else Ok (kind, Bytes.sub b header_len declared)
