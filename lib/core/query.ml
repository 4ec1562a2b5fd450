(** Query descriptions for the secure protocol: a free-connex
    join-aggregate query plus the ownership assignment of its relations.

    [prepare] derives the rooted join tree (witnessing free-connexity) from
    the schemas; callers may instead pin an explicit tree with
    [prepare_with_tree] — the paper's experiments hand-pick trees per
    query. *)

open Secyan_crypto
open Secyan_relational

type input = {
  relation : Relation.t;
  owner : Party.t;
}

type sort_key =
  | By_attr of string  (** an output (group-by) attribute *)
  | By_agg  (** the aggregate annotation itself *)

type direction = Asc | Desc

type t = {
  name : string;
  semiring : Semiring.t;
  tree : Join_tree.t;
  output : Schema.t;
  inputs : (string * input) list;
  order_by : (sort_key * direction) list;
  limit : int option;
}

let has_order t = t.order_by <> [] || t.limit <> None

let total_input_size t =
  List.fold_left (fun acc (_, i) -> acc + Relation.cardinality i.relation) 0 t.inputs

let hypergraph_of_inputs inputs =
  Hypergraph.create
    (List.map
       (fun (label, i) ->
         { Hypergraph.label; attrs = i.relation.Relation.schema })
       inputs)

let check_inputs tree inputs =
  let labels = List.sort String.compare (Join_tree.node_labels tree) in
  let given = List.sort String.compare (List.map fst inputs) in
  if labels <> given then invalid_arg "Query: relations do not match the join tree nodes"

let check_order ~name ~output order_by limit =
  List.iter
    (fun (key, _) ->
      match key with
      | By_agg -> ()
      | By_attr a ->
          if not (Schema.mem a output) then
            invalid_arg
              (Printf.sprintf "Query %s: ORDER BY attribute %s is not an output attribute"
                 name a))
    order_by;
  match limit with
  | Some k when k < 0 -> invalid_arg (Printf.sprintf "Query %s: negative LIMIT" name)
  | _ -> ()

(** Build a query, deriving the join tree. Raises if the query is cyclic
    or not free-connex. *)
let prepare ~name ~semiring ~output ~inputs =
  let hg = hypergraph_of_inputs inputs in
  let output = Schema.of_list output in
  match Join_tree.build hg ~output with
  | Some tree -> { name; semiring; tree; output; inputs; order_by = []; limit = None }
  | None ->
      invalid_arg
        (Printf.sprintf "Query %s is not a free-connex join-aggregate query" name)

(** Build a query with an explicit rooted join tree (validated). *)
let prepare_with_tree ~name ~semiring ~output ~inputs ~root ~parents =
  let hg = hypergraph_of_inputs inputs in
  let output = Schema.of_list output in
  let tree = Join_tree.of_parents hg ~root ~parents in
  if not (Join_tree.satisfies_free_connex tree ~output) then
    invalid_arg (Printf.sprintf "Query %s: tree does not witness free-connexity" name);
  check_inputs tree inputs;
  { name; semiring; tree; output; inputs; order_by = []; limit = None }

(** Attach (or replace) the query's ORDER BY keys and LIMIT, validated
    against the output schema. *)
let with_order ?(order_by = []) ?limit t =
  check_order ~name:t.name ~output:t.output order_by limit;
  { t with order_by; limit }

(** Plaintext reference result (the evaluation's non-private baseline);
    ORDER BY / LIMIT are not applied — see {!ordered_rows}. *)
let plaintext t : Relation.t =
  Yannakakis.run t.semiring t.tree ~output:t.output
    ~relations:(List.map (fun (l, i) -> (l, i.relation)) t.inputs)

(* The total order the secure sort realizes, over (projected output
   tuple, encoded annotation) rows. [By_agg] compares the *encoded* ring
   representation as a two's-complement value at the semiring's width —
   exactly what the sort circuit's top-bit flip computes, and the true
   signed aggregate for the numeric ring. Ties fall through to the next
   key; the final tiebreak is ascending [Tuple.repr], which both the
   plaintext and the secure path can compute, making the order total and
   the revealed result deterministic. *)
let signed_of_encoded ~bits v =
  if bits >= 64 then v
  else
    let half = Int64.shift_left 1L (bits - 1) in
    if Int64.unsigned_compare v half >= 0 then Int64.sub v (Int64.shift_left 1L bits) else v

let compare_rows t =
  let schema = Schema.canonical t.output in
  let bits = Semiring.bits t.semiring in
  fun (tu1, a1) (tu2, a2) ->
    let rec go = function
      | [] -> String.compare (Tuple.repr tu1) (Tuple.repr tu2)
      | (key, dir) :: rest ->
          let c =
            match key with
            | By_attr a -> Value.compare (Tuple.get schema a tu1) (Tuple.get schema a tu2)
            | By_agg ->
                Int64.compare (signed_of_encoded ~bits a1) (signed_of_encoded ~bits a2)
          in
          let c = match dir with Asc -> c | Desc -> -c in
          if c <> 0 then c else go rest
    in
    go t.order_by

(* The nonzero non-dummy rows of [rel], projected onto the canonical
   output schema. *)
let output_rows t (rel : Relation.t) =
  List.filter_map
    (fun (tu, a) ->
      if Tuple.is_dummy tu then None
      else Some (Tuple.project rel.Relation.schema t.output tu, a))
    (Relation.nonzero rel)

(** Apply the query's ORDER BY / LIMIT to a result relation in the
    clear: the nonzero non-dummy rows, projected onto the canonical
    output schema, in the query's total order, truncated to the limit.
    The reference semantics the secure order phase must reproduce. *)
let ordered_rows t (rel : Relation.t) =
  let rows = List.sort (compare_rows t) (output_rows t rel) in
  match t.limit with
  | None -> rows
  | Some k -> List.filteri (fun i _ -> i < k) rows

(* --- canonical answers ----------------------------------------------- *)

type answer = (Tuple.t * int64) list

let content t rel = List.sort compare (output_rows t rel)

(* The secure order phase reveals exactly the ordered, truncated rows, so
   their physical order is the claim under test: they are taken as
   revealed, not sorted. *)
let revealed_answer t (rel : Relation.t) =
  if has_order t then Relation.nonzero rel else content t rel

let oracle_answer t rel = if has_order t then ordered_rows t rel else content t rel

let pp_answer ppf (rows : answer) =
  Fmt.pf ppf "[%a]"
    Fmt.(list ~sep:semi (fun ppf (tu, a) -> Fmt.pf ppf "%a=%Ld" Tuple.pp tu a))
    rows
