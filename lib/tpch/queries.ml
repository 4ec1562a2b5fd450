(** The five TPC-H queries of the paper's evaluation (§8.1), plus Q1, Q4
    and Q14 beyond it, expressed as free-connex join-aggregate queries
    over annotated relations, and the one catalogue every runner (CLI,
    bench, tests) dispatches through.

    Following the paper: every selection has *private* selectivity, so
    non-matching tuples are replaced by dummies rather than dropped; the
    nation relation is public knowledge and is rewritten away (Q8, Q9,
    Q10); money amounts are integer cents and revenue annotations are
    scaled by 100 — revenue = l_extendedprice * (100 - l_discount) — so
    reported sums must be divided by 100 at the end.

    Relations are partitioned between the parties in the worst possible
    way (alternating along the join tree), exactly as in §8.1. *)

open Secyan_crypto
open Secyan_relational
open Secyan_obs

(** Annotation ring for all TPC-H queries: 52 bits leaves headroom for
    cent-scale revenues summed over millions of rows. *)
let ring_bits = 52

let semiring = Semiring.ring ~bits:ring_bits

let context ?(gc_backend = Context.Sim) ?(domains = 1) ?transport ?checkpoint ?cancel
    ?supervisor ~seed () =
  Context.create ~bits:ring_bits ~gc_backend ~domains ?transport ?checkpoint ?cancel
    ?supervisor ~seed ()

(* --- relation shaping helpers ------------------------------------- *)

let geti schema attr t = match Tuple.get schema attr t with
  | Value.Int i -> i
  | _ -> invalid_arg ("expected int attribute " ^ attr)

let gets schema attr t = match Tuple.get schema attr t with
  | Value.Str s -> s
  | _ -> invalid_arg ("expected string attribute " ^ attr)

(** Project [rel] onto [attrs] (with optional virtual columns), replacing
    tuples failing [keep] by dummies and annotating the rest with
    [annot]. Duplicate projections are locally pre-aggregated (sound —
    the semiring's times distributes over plus, so it is what the reduce
    phase would compute first) and the relation is padded back, keeping
    the cardinality public and the selectivity private (§7 option 2). *)
let shape (rel : Relation.t) ~name ~attrs ?(virtuals = []) ~keep ~annot () : Relation.t =
  let schema = rel.Relation.schema in
  let out_schema = Schema.of_list (attrs @ List.map fst virtuals) in
  let totals = Hashtbl.create (max 16 (Relation.cardinality rel)) in
  let order = ref [] in
  Array.iter
    (fun t ->
      if keep schema t then begin
        let values =
          List.map (fun a -> Tuple.get schema a t) attrs
          @ List.map (fun (_, f) -> f schema t) virtuals
        in
        let tuple = Array.of_list values in
        let key = Tuple.repr tuple in
        (match Hashtbl.find_opt totals key with
        | None ->
            order := (key, tuple) :: !order;
            Hashtbl.add totals key (annot schema t)
        | Some acc -> Hashtbl.replace totals key (Semiring.add semiring acc (annot schema t)))
      end)
    rel.Relation.tuples;
  let rows =
    List.rev_map (fun (key, tuple) -> (tuple, Hashtbl.find totals key)) !order
  in
  Relation.pad_to
    ~size:(Relation.cardinality rel)
    (Relation.of_list ~name ~schema:out_schema rows)

let always _ _ = true
let const_one _ _ = 1L

(** revenue = l_extendedprice * (100 - l_discount), cents x 100. *)
let revenue schema t =
  Int64.of_int (geti schema "l_extendedprice" t * (100 - geti schema "l_discount" t))

let date_lt attr cutoff schema t = Value.compare (Tuple.get schema attr t) cutoff < 0
let date_ge attr cutoff schema t = Value.compare (Tuple.get schema attr t) cutoff >= 0

let year_virtual schema t = Value.Int (Value.year_of (Tuple.get schema "o_orderdate" t))

(* --- Query 3 ------------------------------------------------------- *)

(** Q3: revenue of AUTOMOBILE-segment orders not yet shipped as of
    1995-03-13, grouped by (orderkey, orderdate, shippriority); the
    paper's ORDER BY revenue DESC, o_orderdate LIMIT 10 runs as an
    oblivious top-k phase (DESIGN.md §17). *)
let q3 (d : Datagen.dataset) : Secyan.Query.t =
  let cutoff = Value.date ~year:1995 ~month:3 ~day:13 in
  let customer =
    shape d.Datagen.customer ~name:"customer" ~attrs:[ "custkey" ]
      ~keep:(fun s t -> String.equal (gets s "c_mktsegment" t) "AUTOMOBILE")
      ~annot:const_one ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders"
      ~attrs:[ "orderkey"; "custkey"; "o_orderdate"; "o_shippriority" ]
      ~keep:(date_lt "o_orderdate" cutoff) ~annot:const_one ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "orderkey" ]
      ~keep:(date_ge "l_shipdate" cutoff) ~annot:revenue ()
  in
  Secyan.Query.with_order
    ~order_by:
      [
        (Secyan.Query.By_agg, Secyan.Query.Desc);
        (Secyan.Query.By_attr "o_orderdate", Secyan.Query.Asc);
      ]
    ~limit:10
    (Secyan.Query.prepare_with_tree ~name:"Q3" ~semiring
       ~output:[ "orderkey"; "o_orderdate"; "o_shippriority" ]
       ~inputs:
         [
           ("customer", { Secyan.Query.relation = customer; owner = Party.Alice });
           ("orders", { Secyan.Query.relation = orders; owner = Party.Bob });
           ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
         ]
       ~root:"orders"
       ~parents:[ ("customer", "orders"); ("lineitem", "orders") ])

(* --- Query 10 ------------------------------------------------------ *)

(** Q10 (nation rewritten away): revenue of returned items per customer,
    orders from 1993-08-01 for three months; the paper's ORDER BY revenue
    DESC LIMIT 20 runs as an oblivious top-k phase. *)
let q10 (d : Datagen.dataset) : Secyan.Query.t =
  let lo = Value.date ~year:1993 ~month:8 ~day:1 in
  let hi = Value.date ~year:1993 ~month:11 ~day:1 in
  let customer =
    shape d.Datagen.customer ~name:"customer" ~attrs:[ "custkey"; "c_name"; "c_nationkey" ]
      ~keep:always ~annot:const_one ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders" ~attrs:[ "custkey"; "orderkey" ]
      ~keep:(fun s t ->
        date_ge "o_orderdate" lo s t && date_lt "o_orderdate" hi s t)
      ~annot:const_one ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "orderkey" ]
      ~keep:(fun s t -> String.equal (gets s "l_returnflag" t) "R")
      ~annot:revenue ()
  in
  Secyan.Query.with_order
    ~order_by:[ (Secyan.Query.By_agg, Secyan.Query.Desc) ]
    ~limit:20
    (Secyan.Query.prepare_with_tree ~name:"Q10" ~semiring
       ~output:[ "custkey"; "c_name"; "c_nationkey" ]
       ~inputs:
         [
           ("customer", { Secyan.Query.relation = customer; owner = Party.Alice });
           ("orders", { Secyan.Query.relation = orders; owner = Party.Bob });
           ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
         ]
       ~root:"customer"
       ~parents:[ ("lineitem", "orders"); ("orders", "customer") ])

(* --- Query 18 ------------------------------------------------------ *)

(** Q18: large-volume orders — the IN-subquery (orders with
    sum(l_quantity) > threshold) is evaluated locally by lineitem's owner
    and padded to |lineitem| to hide its result size; the paper's ORDER BY
    o_totalprice DESC, o_orderdate LIMIT 100 runs as an oblivious top-k
    phase. *)
let q18 ?(threshold = 300) (d : Datagen.dataset) : Secyan.Query.t =
  let customer =
    shape d.Datagen.customer ~name:"customer" ~attrs:[ "custkey"; "c_name" ] ~keep:always
      ~annot:const_one ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders"
      ~attrs:[ "orderkey"; "custkey"; "o_orderdate"; "o_totalprice" ]
      ~keep:always ~annot:const_one ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "orderkey" ] ~keep:always
      ~annot:(fun s t -> Int64.of_int (geti s "l_quantity" t))
      ()
  in
  (* the subquery, computed locally by lineitem's owner *)
  let li = d.Datagen.lineitem in
  let totals = Hashtbl.create 1024 in
  Array.iter
    (fun t ->
      let k = geti li.Relation.schema "orderkey" t in
      let q = geti li.Relation.schema "l_quantity" t in
      Hashtbl.replace totals k (q + Option.value ~default:0 (Hashtbl.find_opt totals k)))
    li.Relation.tuples;
  let qualifying =
    Hashtbl.fold (fun k q acc -> if q > threshold then k :: acc else acc) totals []
    |> List.sort compare
    |> List.map (fun k -> ([| Value.Int k |], 1L))
  in
  let sub =
    Relation.pad_to
      ~size:(Relation.cardinality li)
      (Relation.of_list ~name:"sub" ~schema:(Schema.of_list [ "orderkey" ]) qualifying)
  in
  Secyan.Query.with_order
    ~order_by:
      [
        (Secyan.Query.By_attr "o_totalprice", Secyan.Query.Desc);
        (Secyan.Query.By_attr "o_orderdate", Secyan.Query.Asc);
      ]
    ~limit:100
    (Secyan.Query.prepare_with_tree ~name:"Q18" ~semiring
       ~output:[ "c_name"; "custkey"; "orderkey"; "o_orderdate"; "o_totalprice" ]
       ~inputs:
         [
           ("customer", { Secyan.Query.relation = customer; owner = Party.Bob });
           ("orders", { Secyan.Query.relation = orders; owner = Party.Alice });
           ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Bob });
           ("sub", { Secyan.Query.relation = sub; owner = Party.Bob });
         ]
       ~root:"orders"
       ~parents:
         [ ("customer", "orders"); ("lineitem", "orders"); ("sub", "orders") ])

(* --- Query 8 (composed from two join-aggregate queries, §7) --------- *)

(** What one run of a catalogue query returns: its answer (see
    {!Secyan.Query.answer}), and the communication and wall-clock of all
    its protocol executions. *)
type outcome = { answer : Secyan.Query.answer; tally : Comm.tally; seconds : float }

let q8_nation = 2 (* BRAZIL: the paper's s_nationkey = 8 under its numbering *)
let q8_customer_nations = [ 2; 17; 1; 24; 3 ] (* the AMERICA region under ours *)

(* One of the two inner queries: numerator restricts supplier annotations
   to Ind(s_nationkey = q8_nation), denominator uses 1. *)
let q8_inner (d : Datagen.dataset) ~numerator : Secyan.Query.t =
  let lo = Value.date ~year:1995 ~month:1 ~day:1 in
  let hi = Value.date ~year:1997 ~month:1 ~day:1 in
  let part =
    shape d.Datagen.part ~name:"part" ~attrs:[ "partkey" ]
      ~keep:(fun s t -> String.equal (gets s "p_type" t) "SMALL PLATED COPPER")
      ~annot:const_one ()
  in
  let supplier =
    shape d.Datagen.supplier ~name:"supplier" ~attrs:[ "suppkey" ] ~keep:always
      ~annot:(fun s t ->
        if numerator then if geti s "s_nationkey" t = q8_nation then 1L else 0L else 1L)
      ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "partkey"; "suppkey"; "orderkey" ]
      ~keep:always ~annot:revenue ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders" ~attrs:[ "orderkey"; "custkey" ]
      ~virtuals:[ ("o_year", year_virtual) ]
      ~keep:(fun s t -> date_ge "o_orderdate" lo s t && date_lt "o_orderdate" hi s t)
      ~annot:const_one ()
  in
  let customer =
    shape d.Datagen.customer ~name:"customer" ~attrs:[ "custkey" ]
      ~keep:(fun s t -> List.mem (geti s "c_nationkey" t) q8_customer_nations)
      ~annot:const_one ()
  in
  Secyan.Query.prepare_with_tree
    ~name:(if numerator then "Q8-num" else "Q8-den")
    ~semiring ~output:[ "o_year" ]
    ~inputs:
      [
        ("part", { Secyan.Query.relation = part; owner = Party.Alice });
        ("supplier", { Secyan.Query.relation = supplier; owner = Party.Bob });
        ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
        ("orders", { Secyan.Query.relation = orders; owner = Party.Bob });
        ("customer", { Secyan.Query.relation = customer; owner = Party.Alice });
      ]
    ~root:"orders"
    ~parents:
      [
        ("part", "lineitem"); ("supplier", "lineitem"); ("lineitem", "orders");
        ("customer", "orders");
      ]

(* Index the shared annotations of a protocol result by their single
   output attribute (an int). *)
let index_by_int_key (r : Secyan.Secure_yannakakis.result) =
  let schema = r.Secyan.Secure_yannakakis.joined.Relation.schema in
  Array.to_list r.Secyan.Secure_yannakakis.joined.Relation.tuples
  |> List.mapi (fun i t ->
         match Tuple.get schema (Schema.to_list schema |> List.hd) t with
         | Value.Int k -> (k, r.Secyan.Secure_yannakakis.annots.(i))
         | _ -> invalid_arg "expected int output attribute")

(** Full composed Q8: two secure Yannakakis runs producing shared per-year
    sums, then one garbled division circuit per year revealing
    sum(brazil volume) * 1000 / sum(volume) to Alice. *)
let run_q8 ctx (d : Datagen.dataset) : outcome =
  let answer, seconds, tally =
    Trace.measure ctx @@ fun () ->
    let num = Secyan.Secure_yannakakis.run_shared ctx (q8_inner d ~numerator:true) in
    let den = Secyan.Secure_yannakakis.run_shared ctx (q8_inner d ~numerator:false) in
    let num_by_year = index_by_int_key num in
    let den_by_year = index_by_int_key den in
    List.map
      (fun (year, den_share) ->
        let num_share =
          Option.value ~default:Secret_share.zero (List.assoc_opt year num_by_year)
        in
        let out =
          Gc_protocol.eval_reveal ctx ~to_:Party.Alice
            ~inputs:[ Gc_protocol.Shared num_share; Gc_protocol.Shared den_share ]
            ~build:(fun b words ->
              let scaled =
                Circuits.mul_word b words.(0) (Circuits.const_word ~bits:ring_bits 1000L)
              in
              [ Circuits.div_word b scaled words.(1) ])
        in
        ([| Value.Int year |], out.(0)))
      (List.sort compare den_by_year)
  in
  { answer; tally; seconds }

(** Plaintext reference for Q8. *)
let q8_plaintext (d : Datagen.dataset) : Secyan.Query.answer =
  let result q =
    let r = Secyan.Query.plaintext q in
    Relation.nonzero r
    |> List.map (fun (t, a) ->
           match t.(0) with
           | Value.Int y -> (y, a)
           | v ->
               invalid_arg
                 (Printf.sprintf "q8_plaintext: year column holds %s, expected an int"
                    (Value.repr v)))
  in
  let nums = result (q8_inner d ~numerator:true) in
  let dens = result (q8_inner d ~numerator:false) in
  List.filter_map
    (fun (year, den) ->
      if Int64.equal den 0L then None
      else
        let num = Option.value ~default:0L (List.assoc_opt year nums) in
        Some ([| Value.Int year |], Int64.div (Int64.mul num 1000L) den))
    (List.sort compare dens)

(* --- Query 9 (25-way decomposition + two aggregates, §8.1) ---------- *)

let all_nations = List.init Datagen.n_nations Fun.id

(* One answer row of Q9: (nationkey, year) -> profit in cents (the
   revenue scale is cents x 100); zero profits are not part of the
   answer. *)
let profit_row nationkey year amount =
  match amount / 100 with
  | 0 -> None
  | cents -> Some ([| Value.Int nationkey; Value.Int year |], Int64.of_int cents)

(* Inner query for one nation; [volume] selects the first aggregate
   (revenue) vs the second (supplycost x quantity). *)
let q9_inner (d : Datagen.dataset) ~nationkey ~volume : Secyan.Query.t =
  let part =
    shape d.Datagen.part ~name:"part" ~attrs:[ "partkey" ]
      ~keep:(fun s t ->
        let name = gets s "p_name" t in
        let green = "green" in
        let rec contains i =
          i + String.length green <= String.length name
          && (String.equal (String.sub name i (String.length green)) green
             || contains (i + 1))
        in
        contains 0)
      ~annot:const_one ()
  in
  let supplier =
    shape d.Datagen.supplier ~name:"supplier" ~attrs:[ "suppkey" ]
      ~keep:(fun s t -> geti s "s_nationkey" t = nationkey)
      ~annot:const_one ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "partkey"; "suppkey"; "orderkey" ]
      ~keep:always
      ~annot:(fun s t ->
        if volume then revenue s t else Int64.of_int (geti s "l_quantity" t))
      ()
  in
  let partsupp =
    shape d.Datagen.partsupp ~name:"partsupp" ~attrs:[ "partkey"; "suppkey" ] ~keep:always
      ~annot:(fun s t ->
        if volume then 1L else Int64.of_int (100 * geti s "ps_supplycost" t)
        (* x100 so both aggregates share the revenue scale *))
      ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders" ~attrs:[ "orderkey" ]
      ~virtuals:[ ("o_year", year_virtual) ]
      ~keep:always ~annot:const_one ()
  in
  Secyan.Query.prepare_with_tree
    ~name:(Printf.sprintf "Q9-n%d-%s" nationkey (if volume then "rev" else "cost"))
    ~semiring ~output:[ "o_year" ]
    ~inputs:
      [
        ("part", { Secyan.Query.relation = part; owner = Party.Alice });
        ("supplier", { Secyan.Query.relation = supplier; owner = Party.Bob });
        ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
        ("partsupp", { Secyan.Query.relation = partsupp; owner = Party.Bob });
        ("orders", { Secyan.Query.relation = orders; owner = Party.Bob });
      ]
    ~root:"orders"
    ~parents:
      [
        ("part", "lineitem"); ("supplier", "lineitem"); ("partsupp", "lineitem");
        ("lineitem", "orders");
      ]

(** Full composed Q9: per nation, two secure runs; profits are computed by
    local share subtraction and revealed to Alice (as in §8.1). [nations]
    restricts the decomposition (default: all 25). The answer holds the
    nonzero (nationkey, year) profits in cents. *)
let run_q9 ?(nations = all_nations) ctx (d : Datagen.dataset) : outcome =
  let rows, seconds, tally =
    Trace.measure ctx @@ fun () ->
    List.concat_map
      (fun nationkey ->
        let rev = Secyan.Secure_yannakakis.run_shared ctx (q9_inner d ~nationkey ~volume:true) in
        let cost =
          Secyan.Secure_yannakakis.run_shared ctx (q9_inner d ~nationkey ~volume:false)
        in
        let rev_by_year = index_by_int_key rev in
        let cost_by_year = index_by_int_key cost in
        let years =
          List.sort_uniq compare (List.map fst rev_by_year @ List.map fst cost_by_year)
        in
        List.map
          (fun year ->
            let get map = Option.value ~default:Secret_share.zero (List.assoc_opt year map) in
            let amount = Secret_share.sub ctx (get rev_by_year) (get cost_by_year) in
            let revealed = Secret_share.reveal_to ctx Party.Alice amount in
            profit_row nationkey year (Semiring.to_signed_int semiring revealed))
          years)
      nations
  in
  { answer = List.sort compare (List.filter_map Fun.id rows); tally; seconds }

(** Plaintext reference for Q9. *)
let q9_plaintext ?(nations = all_nations) (d : Datagen.dataset) : Secyan.Query.answer =
  List.sort compare @@ List.concat_map
    (fun nationkey ->
      let result q =
        Relation.nonzero (Secyan.Query.plaintext q)
        |> List.map (fun (t, a) ->
               match t.(0) with
               | Value.Int y -> (y, a)
               | v ->
                   invalid_arg
                     (Printf.sprintf
                        "q9_plaintext: year column holds %s, expected an int"
                        (Value.repr v)))
      in
      let revs = result (q9_inner d ~nationkey ~volume:true) in
      let costs = result (q9_inner d ~nationkey ~volume:false) in
      let years = List.sort_uniq compare (List.map fst revs @ List.map fst costs) in
      List.filter_map
        (fun year ->
          let get map = Option.value ~default:0L (List.assoc_opt year map) in
          profit_row nationkey year
            (Semiring.to_signed_int semiring
               (Semiring.add semiring (get revs)
                  (Secyan_crypto.Zn.neg semiring.Semiring.zn (get costs)))))
        years)
    nations

(* --- Q1: pricing summary (single relation) -------------------------- *)

(** Q1 (restricted to one aggregate): sum of revenue per
    (l_returnflag) for lineitems shipped before the cutoff. A
    single-relation query: the join tree is one node, the protocol is
    reduce + reveal. *)
let q1 ?(cutoff = Value.date ~year:1998 ~month:9 ~day:2) (d : Datagen.dataset) :
    Secyan.Query.t =
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "l_returnflag" ]
      ~keep:(date_lt "l_shipdate" cutoff)
      ~annot:revenue ()
  in
  Secyan.Query.prepare ~name:"Q1" ~semiring ~output:[ "l_returnflag" ]
    ~inputs:[ ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Bob }) ]

(* --- Q4: order priority checking (EXISTS subquery) ------------------- *)

(** Q4: count orders placed in a quarter that have at least one lineitem
    received after its commit date, per order priority. The EXISTS
    subquery becomes a padded distinct-orderkey relation computed locally
    by lineitem's owner (cf. Q18). *)
let q4 ?(quarter_start = Value.date ~year:1993 ~month:7 ~day:1) (d : Datagen.dataset) :
    Secyan.Query.t =
  let quarter_end =
    match quarter_start with
    | Value.Date days -> Value.Date (days + 92)
    | _ -> invalid_arg "q4: quarter_start must be a date"
  in
  (* our generator has no commit/receipt dates; late delivery is modelled
     as shipdate more than 60 days after the order date, which only the
     lineitem owner needs to evaluate *)
  let orders =
    shape d.Datagen.orders ~name:"orders"
      ~attrs:[ "orderkey"; "o_shippriority" ]
      ~keep:(fun s t ->
        date_ge "o_orderdate" quarter_start s t
        && date_lt "o_orderdate" quarter_end s t)
      ~annot:const_one ()
  in
  let li = d.Datagen.lineitem in
  let order_dates = Hashtbl.create 1024 in
  Array.iter
    (fun t ->
      match
        ( Tuple.get d.Datagen.orders.Relation.schema "orderkey" t,
          Tuple.get d.Datagen.orders.Relation.schema "o_orderdate" t )
      with
      | Value.Int k, Value.Date od -> Hashtbl.replace order_dates k od
      | _ -> ())
    d.Datagen.orders.Relation.tuples;
  let qualifying = Hashtbl.create 1024 in
  Array.iter
    (fun t ->
      match
        ( Tuple.get li.Relation.schema "orderkey" t,
          Tuple.get li.Relation.schema "l_shipdate" t )
      with
      | Value.Int k, Value.Date ship -> (
          match Hashtbl.find_opt order_dates k with
          | Some od when ship - od > 60 -> Hashtbl.replace qualifying k ()
          | _ -> ())
      | _ -> ())
    li.Relation.tuples;
  let sub_rows =
    Hashtbl.fold (fun k () acc -> k :: acc) qualifying []
    |> List.sort compare
    |> List.map (fun k -> ([| Value.Int k |], 1L))
  in
  let sub =
    Relation.pad_to
      ~size:(Relation.cardinality li)
      (Relation.of_list ~name:"late" ~schema:(Schema.of_list [ "orderkey" ]) sub_rows)
  in
  Secyan.Query.prepare_with_tree ~name:"Q4" ~semiring ~output:[ "o_shippriority" ]
    ~inputs:
      [
        ("orders", { Secyan.Query.relation = orders; owner = Party.Alice });
        ("late", { Secyan.Query.relation = sub; owner = Party.Bob });
      ]
    ~root:"orders" ~parents:[ ("late", "orders") ]

(* --- Q14: promo revenue (composition) -------------------------------- *)

(* inner query shared by both aggregates: lineitem x part in a month *)
let q14_inner (d : Datagen.dataset) ~promo_only ~month_start : Secyan.Query.t =
  let month_end =
    match month_start with
    | Value.Date days -> Value.Date (days + 30)
    | _ -> invalid_arg "q14: month_start must be a date"
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "partkey" ]
      ~keep:(fun s t ->
        date_ge "l_shipdate" month_start s t
        && date_lt "l_shipdate" month_end s t)
      ~annot:revenue ()
  in
  let part =
    shape d.Datagen.part ~name:"part" ~attrs:[ "partkey" ]
      ~keep:always
      ~annot:(fun s t ->
        if promo_only then
          let ty = gets s "p_type" t in
          if String.length ty >= 5 && String.sub ty 0 5 = "PROMO" then 1L else 0L
        else 1L)
      ()
  in
  Secyan.Query.prepare_with_tree
    ~name:(if promo_only then "Q14-promo" else "Q14-all")
    ~semiring ~output:[]
    ~inputs:
      [
        ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
        ("part", { Secyan.Query.relation = part; owner = Party.Bob });
      ]
    ~root:"lineitem" ~parents:[ ("part", "lineitem") ]

let q14_month = Value.date ~year:1995 ~month:9 ~day:1

(** Composed Q14: two scalar aggregates with shared outputs, one division
    circuit revealing only the ratio (promo revenue / total revenue x
    1000, the answer's one row). *)
let run_q14 ctx (d : Datagen.dataset) : outcome =
  let month_start = q14_month in
  let share, seconds, tally =
    Trace.measure ctx @@ fun () ->
    let scalar_share q =
      let r = Secyan.Secure_yannakakis.run_shared ctx q in
      match r.Secyan.Secure_yannakakis.annots with
      | [| s |] -> s
      | [||] -> Secret_share.zero
      | _ -> invalid_arg "q14: scalar aggregate expected"
    in
    let promo = scalar_share (q14_inner d ~promo_only:true ~month_start) in
    let total = scalar_share (q14_inner d ~promo_only:false ~month_start) in
    Secyan.Composition.reveal_ratio ctx ~to_:Party.Alice ~scale:1000L ~num:promo ~den:total ()
  in
  { answer = [ ([||], share) ]; tally; seconds }

(** Plaintext reference for Q14. *)
let q14_plaintext (d : Datagen.dataset) : Secyan.Query.answer =
  let month_start = q14_month in
  let total_of q =
    match Relation.nonzero (Secyan.Query.plaintext q) with
    | [ (_, v) ] -> v
    | [] -> 0L
    | _ -> invalid_arg "q14_plaintext: scalar expected"
  in
  let promo = total_of (q14_inner d ~promo_only:true ~month_start) in
  let total = total_of (q14_inner d ~promo_only:false ~month_start) in
  [ ([||], if Int64.equal total 0L then 0L else Int64.div (Int64.mul promo 1000L) total) ]

(* --- shared metadata ---------------------------------------------- *)

(** Effective input size in bytes: total size of the columns involved in
    the query, as plotted on the x-axis of Figures 2-6. *)
let effective_input_bytes (q : Secyan.Query.t) =
  List.fold_left
    (fun acc (_, (i : Secyan.Query.input)) ->
      acc
      + Relation.cardinality i.Secyan.Query.relation
        * (Schema.arity i.Secyan.Query.relation.Relation.schema + 1)
        * 4)
    0 q.Secyan.Query.inputs

(* --- the catalogue ---------------------------------------------------- *)

type instance = {
  query : Secyan.Query.t;
  run : ?resume:bool -> Context.t -> outcome;
  plaintext : unit -> Secyan.Query.answer;
}

type entry = { name : string; executions : int; instantiate : Datagen.dataset -> instance }

let run_query ?resume ctx q =
  let revealed, r = Secyan.Secure_yannakakis.run ?resume ctx q in
  {
    answer = Secyan.Query.revealed_answer q revealed;
    tally = r.Secyan.Secure_yannakakis.tally;
    seconds = r.Secyan.Secure_yannakakis.seconds;
  }

(* A single protocol execution: the query shown is the query run. *)
let single name make =
  let instantiate d =
    let q = make d in
    {
      query = q;
      run = (fun ?resume ctx -> run_query ?resume ctx q);
      plaintext = (fun () -> Secyan.Query.oracle_answer q (Secyan.Query.plaintext q));
    }
  in
  { name; executions = 1; instantiate }

(* A composition of several executions over one context: it builds its
   inner queries as it runs them, and one checkpoint stream cannot name
   its restart point, so it does not resume. *)
let composed name ~executions ~inner run plaintext =
  let instantiate d =
    {
      query = inner d;
      run =
        (fun ?(resume = false) ctx ->
          if resume then invalid_arg ("Queries: " ^ name ^ " is a composition; it cannot resume");
          run ctx d);
      plaintext = (fun () -> plaintext d);
    }
  in
  { name; executions; instantiate }

let catalogue =
  [
    single "q3" q3;
    single "q10" q10;
    single "q18" (fun d -> q18 d);
    composed "q8" ~executions:2 ~inner:(q8_inner ~numerator:true) run_q8 q8_plaintext;
    (* every nation's inner queries share one shape; nation 2 is the one
       Figure 6 measures *)
    composed "q9" ~executions:(2 * Datagen.n_nations)
      ~inner:(q9_inner ~nationkey:2 ~volume:true)
      (fun ctx d -> run_q9 ctx d)
      (fun d -> q9_plaintext d);
    single "q1" (fun d -> q1 d);
    single "q4" (fun d -> q4 d);
    composed "q14" ~executions:2
      ~inner:(fun d -> q14_inner d ~promo_only:true ~month_start:q14_month)
      run_q14 q14_plaintext;
  ]

let find name =
  match List.find_opt (fun e -> String.equal e.name name) catalogue with
  | Some e -> e
  | None -> invalid_arg ("Queries.find: no query " ^ name)
