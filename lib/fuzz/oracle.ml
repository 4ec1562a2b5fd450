(** Differential oracle: one instance, several executors, one answer.

    Every instance is evaluated by the naive full-join reference, the
    plaintext three-phase Yannakakis algorithm, the secure protocol over
    the pure-accounting simulation and over a real in-process framed
    transport, and — where its semantics apply (ring semiring, scalar
    aggregate, small product) — the cartesian garbled-circuit baseline.
    All revealed results must be identical; any divergence or exception
    is a finding. *)

open Secyan_crypto
open Secyan_relational

type outcome = { ok : bool; executors : string list; details : string list }

let ctx_seed (t : Gen.instance) =
  Int64.add t.Gen.seed (Int64.mul (Int64.of_int (t.Gen.case + 1)) 0x9E37_79B9L)

let relations (q : Secyan.Query.t) =
  List.map (fun (label, i) -> (label, i.Secyan.Query.relation)) q.Secyan.Query.inputs

(* The cartesian-GC baseline sums gated per-row annotation products in
   the ring: it evaluates exactly the scalar ring aggregate, nothing
   else, and its cost is the full product — so gate it accordingly. *)
let gc_product_cap = 256

let gc_applicable (q : Secyan.Query.t) =
  let product =
    List.fold_left (fun acc (_, r) -> acc * Relation.cardinality r) 1 (relations q)
  in
  q.Secyan.Query.semiring.Semiring.kind = Semiring.Ring
  && Schema.is_empty q.Secyan.Query.output
  && product > 0 && product <= gc_product_cap

let check (t : Gen.instance) =
  let q = t.Gen.query in
  let semiring = q.Secyan.Query.semiring in
  let executors = ref [] in
  let details = ref [] in
  let run_executor name f =
    executors := name :: !executors;
    match f () with
    | v -> Some v
    | exception e ->
        details := Printf.sprintf "%s raised: %s" name (Printexc.to_string e) :: !details;
        None
  in
  (* reference: naive full join, then aggregate, as the oracle answer
     (in query order for ordered instances); the unordered naive content
     additionally anchors the cartesian-GC scalar check either way. The
     secure executors' revealed relations are already in query order, so
     their physical order is the claim under test. *)
  let naive_rel =
    run_executor "naive" (fun () ->
        Yannakakis.naive semiring ~output:q.Secyan.Query.output ~relations:(relations q))
  in
  let reference = Option.map (Secyan.Query.oracle_answer q) naive_rel in
  let compare_to name rows =
    match reference with
    | None -> ()
    | Some expected ->
        if rows <> expected then
          details :=
            Fmt.str "%s diverges from naive: got %a, expected %a" name
              Secyan.Query.pp_answer rows Secyan.Query.pp_answer expected
            :: !details
  in
  (* plaintext three-phase Yannakakis *)
  (match
     run_executor "plaintext" (fun () ->
         Secyan.Query.oracle_answer q (Secyan.Query.plaintext q))
   with
  | Some rows -> compare_to "plaintext" rows
  | None -> ());
  (* secure protocol, pure-accounting simulation *)
  (match
     run_executor "secure-sim" (fun () ->
         let ctx = Context.create ~bits:(Semiring.bits semiring) ~seed:(ctx_seed t) () in
         let revealed, _ = Secyan.Secure_yannakakis.run ctx q in
         Secyan.Query.revealed_answer q revealed)
   with
  | Some rows -> compare_to "secure-sim" rows
  | None -> ());
  (* secure protocol over a real framed in-process transport *)
  (match
     run_executor "secure-pipe" (fun () ->
         let transport = Secyan_net.Resilient.create (Secyan_net.Transport.inproc ()) in
         let ctx =
           Context.create ~bits:(Semiring.bits semiring) ~transport ~seed:(ctx_seed t) ()
         in
         let revealed, _ = Secyan.Secure_yannakakis.run ctx q in
         Context.close_transport ctx;
         Secyan.Query.revealed_answer q revealed)
   with
  | Some rows -> compare_to "secure-pipe" rows
  | None -> ());
  (* cartesian-GC baseline, where its semantics apply *)
  if gc_applicable q then begin
    let product =
      List.fold_left (fun acc (_, r) -> acc * Relation.cardinality r) 1 (relations q)
    in
    match
      run_executor "cartesian-gc" (fun () ->
          let ctx = Context.create ~bits:(Semiring.bits semiring) ~seed:(ctx_seed t) () in
          let m = Secyan_smcql.Cartesian_gc.run_small ctx q ~max_rows:product in
          Secret_share.reconstruct ctx m.Secyan_smcql.Cartesian_gc.total)
    with
    | Some total ->
        (* the baseline has no top-k semantics: anchor it to the full
           (untruncated) naive content even for ordered instances *)
        let expected =
          match Option.map (Secyan.Query.content q) naive_rel with
          | Some [ (_, a) ] -> a
          | Some [] -> 0L
          | Some _ | None -> total (* unreachable for a scalar aggregate *)
        in
        if not (Int64.equal total expected) then
          details :=
            Printf.sprintf "cartesian-gc diverges from naive: got %Ld, expected %Ld" total
              expected
            :: !details
    | None -> ()
  end;
  { ok = !details = []; executors = List.rev !executors; details = List.rev !details }
