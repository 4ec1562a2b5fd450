(** Obliviousness auditor: the protocol's observable cost must be a
    function of public sizes alone.

    The auditor derives a second database with identical public shape
    but different private content — an injective renaming of every
    tuple value plus an annotation transform that provably preserves
    each intermediate zero/nonzero pattern — and runs the protocol on
    both, demanding a bit-identical communication tally, round count,
    revealed cardinality, and observer event stream: every span, counter
    bump, send (direction and size) and round bump, in order.

    The annotation transform per semiring:
    - ring: scale by a fixed odd constant. Odd means a unit of
      Z_{2^l}, and every intermediate annotation is a sum of products
      of exactly one annotation per subtree relation, so it scales by
      a power of the unit: zero iff it was zero before.
    - tropical: decode, add 1, re-encode; the encoded infinity (0)
      stays 0. Nonzero encodings stay nonzero.
    - boolean: unchanged (values still rename, so content differs). *)

open Secyan_crypto
open Secyan_relational

type report = { ok : bool; details : string list }

(* odd => a unit of Z_{2^l} for every l *)
let ring_scale = 0x9E37_79B1L

let rename_value = function
  | Value.Int v -> Value.Int (v + 1009)
  | Value.Str s -> Value.Str (s ^ "~x")
  | Value.Date d -> Value.Date (d + 37)
  | Value.Dummy _ as d -> d

let transform_annot (semiring : Semiring.t) a =
  if Semiring.is_zero a then a
  else
    match semiring.Semiring.kind with
    | Semiring.Ring -> Zn.norm semiring.Semiring.zn (Int64.mul a ring_scale)
    | Semiring.Boolean -> a
    | Semiring.Tropical_min | Semiring.Tropical_max -> (
        match Semiring.to_value semiring a with
        | Some v -> (
            try Semiring.of_value semiring (Int64.add v 1L)
            with Invalid_argument _ -> a (* at the range edge: keep *))
        | None -> a)

(* Same public shape (name, schema, cardinality, owner), different
   private content. *)
let variant (q : Secyan.Query.t) =
  let semiring = q.Secyan.Query.semiring in
  let inputs =
    List.map
      (fun (label, (input : Secyan.Query.input)) ->
        let r = input.Secyan.Query.relation in
        let tuples = Array.map (Array.map rename_value) r.Relation.tuples in
        let annots = Array.map (transform_annot semiring) r.Relation.annots in
        let relation =
          Relation.create ~name:r.Relation.name ~schema:r.Relation.schema ~tuples ~annots
        in
        (label, { input with Secyan.Query.relation }))
      q.Secyan.Query.inputs
  in
  { q with Secyan.Query.inputs }

(* Record the full observer event stream; two oblivious runs must agree
   on every event, send by send, not just on totals. *)
let recorder () =
  let buf = Buffer.create 1024 in
  let observer =
    {
      Trace_sink.enter = (fun name -> Buffer.add_string buf ("E " ^ name ^ "\n"));
      exit = (fun () -> Buffer.add_string buf "X\n");
      bump =
        (fun c n ->
          Buffer.add_string buf
            (Printf.sprintf "B %s %d\n" (Trace_sink.counter_name c) n));
      send =
        (fun ~from ~bits ->
          Buffer.add_string buf (Printf.sprintf "S %s %d\n" (Party.to_string from) bits));
      rounds = (fun n -> Buffer.add_string buf (Printf.sprintf "R %d\n" n));
    }
  in
  (observer, buf)

type observation = {
  tally : Comm.tally;
  counters : int array;
  transcript : string;
  revealed_size : int;
}

let observe ~seed q =
  let ctx = Context.create ~bits:(Semiring.bits q.Secyan.Query.semiring) ~seed () in
  let observer, buf = recorder () in
  Comm.attach ctx.Context.comm observer;
  let revealed, result = Secyan.Secure_yannakakis.run ctx q in
  {
    tally = result.Secyan.Secure_yannakakis.tally;
    counters = Context.counter_totals ctx;
    transcript = Buffer.contents buf;
    revealed_size = Relation.cardinality revealed;
  }

let transcript ~seed q = (observe ~seed q).transcript

let check (t : Gen.instance) =
  let q = t.Gen.query in
  let seed = Int64.add t.Gen.seed (Int64.of_int (31 * (t.Gen.case + 1))) in
  let details = ref [] in
  (match (observe ~seed q, observe ~seed (variant q)) with
  | base, var ->
      if not (Comm.equal base.tally var.tally) then
        details :=
          Fmt.str "comm tally diverges: %a vs %a" Comm.pp base.tally Comm.pp var.tally
          :: !details;
      if base.tally.Comm.rounds <> var.tally.Comm.rounds then
        details :=
          Printf.sprintf "round count diverges: %d vs %d" base.tally.Comm.rounds
            var.tally.Comm.rounds
          :: !details;
      if base.counters <> var.counters then
        List.iter
          (fun c ->
            let i = Trace_sink.counter_index c in
            if base.counters.(i) <> var.counters.(i) then
              details :=
                Printf.sprintf "counter %s diverges: %d vs %d" (Trace_sink.counter_name c)
                  base.counters.(i) var.counters.(i)
                :: !details)
          Trace_sink.all_counters;
      if base.revealed_size <> var.revealed_size then
        details :=
          Printf.sprintf "revealed cardinality diverges: %d vs %d" base.revealed_size
            var.revealed_size
          :: !details;
      if base.transcript <> var.transcript then
        details := "observer event stream diverges" :: !details
  | exception e ->
      details := Printf.sprintf "auditor run raised: %s" (Printexc.to_string e) :: !details);
  { ok = !details = []; details = List.rev !details }
