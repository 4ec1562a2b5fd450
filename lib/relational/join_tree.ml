(** Rooted join trees (paper §3.1).

    A join tree of an acyclic hypergraph has the relations as nodes and
    satisfies the running-intersection property: for every attribute, the
    nodes containing it form a connected subtree. A free-connex query
    additionally has a rooted join tree in which, for every output
    attribute A and non-output attribute B, TOP(B) is not a proper ancestor
    of TOP(A) (condition (2) of §3.1).

    [build] searches for such a rooted tree by enumerating labeled trees
    through Prufer sequences — queries have a handful of relations, so the
    search space is tiny — and is exact for up to 8 relations. *)

type t = {
  hypergraph : Hypergraph.t;
  root : string;
  parent : (string, string) Hashtbl.t;  (** child label -> parent label *)
  order : string list;                  (** nodes, children before parents *)
}

let attrs t label = (Hypergraph.find t.hypergraph label).Hypergraph.attrs
let node_labels t = List.map (fun e -> e.Hypergraph.label) t.hypergraph.Hypergraph.edges
let parent_of t label = Hashtbl.find_opt t.parent label
let root t = t.root

let children t label =
  Hashtbl.fold (fun c p acc -> if String.equal p label then c :: acc else acc) t.parent []
  |> List.sort String.compare

(** Nodes in bottom-up order (every child precedes its parent), paired with
    their parents; the root is excluded. *)
let bottom_up_edges t =
  List.filter_map
    (fun label ->
      match parent_of t label with Some p -> Some (label, p) | None -> None)
    t.order

(* --- construction ------------------------------------------------- *)

let decode_prufer k seq =
  (* standard Prufer decoding: k nodes, sequence of length k-2 *)
  let degree = Array.make k 1 in
  List.iter (fun v -> degree.(v) <- degree.(v) + 1) seq;
  let edges = ref [] in
  let seq = ref seq in
  let rec smallest_leaf i = if degree.(i) = 1 then i else smallest_leaf (i + 1) in
  let remaining = ref (k - 1) in
  while !seq <> [] do
    match !seq with
    | v :: rest ->
        let leaf = smallest_leaf 0 in
        edges := (leaf, v) :: !edges;
        degree.(leaf) <- 0;
        degree.(v) <- degree.(v) - 1;
        seq := rest;
        decr remaining
    | [] -> ()
  done;
  (* connect the two remaining degree-1 nodes *)
  let last = Array.to_list (Array.mapi (fun i d -> (i, d)) degree) in
  (match List.filter (fun (_, d) -> d = 1) last with
  | [ (a, _); (b, _) ] -> edges := (a, b) :: !edges
  | [ (a, _) ] when k = 1 -> ignore a
  | _ -> assert false);
  !edges

let all_trees k =
  if k = 1 then [ [] ]
  else begin
    let rec sequences len =
      if len = 0 then [ [] ]
      else
        let shorter = sequences (len - 1) in
        List.concat_map (fun s -> List.init k (fun v -> v :: s)) shorter
    in
    List.map (decode_prufer k) (sequences (k - 2))
  end

(* Check the running-intersection property of an undirected tree given as
   adjacency lists over edge indices. *)
let running_intersection (edges : Hypergraph.edge array) adjacency =
  let k = Array.length edges in
  let all_attrs =
    List.sort_uniq String.compare
      (List.concat_map
         (fun e -> Schema.to_list e.Hypergraph.attrs)
         (Array.to_list edges))
  in
  List.for_all
    (fun a ->
      let holders = List.filter (fun i -> Schema.mem a edges.(i).Hypergraph.attrs)
          (List.init k (fun i -> i))
      in
      match holders with
      | [] | [ _ ] -> true
      | start :: _ ->
          (* BFS restricted to holder nodes *)
          let holder = Array.make k false in
          List.iter (fun i -> holder.(i) <- true) holders;
          let visited = Array.make k false in
          let queue = Queue.create () in
          Queue.add start queue;
          visited.(start) <- true;
          let count = ref 0 in
          while not (Queue.is_empty queue) do
            let u = Queue.pop queue in
            incr count;
            List.iter
              (fun v ->
                if holder.(v) && not (visited.(v)) then begin
                  visited.(v) <- true;
                  Queue.add v queue
                end)
              adjacency.(u)
          done;
          !count = List.length holders)
    all_attrs

(* Root an undirected tree at [root]; returns parent table and bottom-up
   order. *)
let root_tree k adjacency root =
  let parent = Array.make k (-1) in
  let order = ref [] in
  let visited = Array.make k false in
  let rec dfs u =
    visited.(u) <- true;
    List.iter
      (fun v ->
        if not visited.(v) then begin
          parent.(v) <- u;
          dfs v
        end)
      adjacency.(u);
    order := u :: !order
  in
  dfs root;
  (* [!order] is reverse finishing order (root first); the finishing order
     itself has every child before its parent. *)
  (parent, List.rev !order)

(* Condition (2) of §3.1 for a rooted tree. *)
let free_connex_ok (edges : Hypergraph.edge array) parent root ~output =
  let k = Array.length edges in
  let depth = Array.make k 0 in
  let rec compute_depth i =
    if i = root then 0
    else if depth.(i) > 0 then depth.(i)
    else begin
      let d = 1 + compute_depth parent.(i) in
      depth.(i) <- d;
      d
    end
  in
  for i = 0 to k - 1 do
    ignore (compute_depth i)
  done;
  let top a =
    let holders =
      List.filter (fun i -> Schema.mem a edges.(i).Hypergraph.attrs) (List.init k (fun i -> i))
    in
    List.fold_left (fun best i -> if depth.(i) < depth.(best) then i else best)
      (List.hd holders) holders
  in
  let rec proper_ancestor anc node =
    if node = root then false
    else
      let p = parent.(node) in
      p = anc || proper_ancestor anc p
  in
  let all_attrs =
    List.sort_uniq String.compare
      (List.concat_map (fun e -> Schema.to_list e.Hypergraph.attrs) (Array.to_list edges))
  in
  let out_attrs = List.filter (fun a -> Schema.mem a output) all_attrs in
  let non_out = List.filter (fun a -> not (Schema.mem a output)) all_attrs in
  List.for_all
    (fun a ->
      let ta = top a in
      List.for_all (fun b -> not (proper_ancestor (top b) ta)) non_out)
    out_attrs

let make hypergraph labels parent_arr root_idx order_idx =
  let parent = Hashtbl.create 8 in
  Array.iteri (fun i p -> if i <> root_idx then Hashtbl.add parent labels.(i) labels.(p)) parent_arr;
  {
    hypergraph;
    root = labels.(root_idx);
    parent;
    order = List.map (fun i -> labels.(i)) order_idx;
  }

(** Find a rooted join tree witnessing free-connexity (condition (2)); for
    [output = empty] any join tree and root works. Returns [None] when the
    query is cyclic or not free-connex. *)
let build (hypergraph : Hypergraph.t) ~output =
  let edges = Array.of_list hypergraph.Hypergraph.edges in
  let k = Array.length edges in
  if k = 0 then invalid_arg "Join_tree.build: empty hypergraph";
  if k > 8 then
    invalid_arg
      (Printf.sprintf "Join_tree.build: %d relations exceed the exhaustive-search limit \
                       of 8; supply the tree explicitly via of_parents"
         k);
  let labels = Array.map (fun e -> e.Hypergraph.label) edges in
  let try_tree tree_edges =
    let adjacency = Array.make k [] in
    List.iter
      (fun (a, b) ->
        adjacency.(a) <- b :: adjacency.(a);
        adjacency.(b) <- a :: adjacency.(b))
      tree_edges;
    if not (running_intersection edges adjacency) then None
    else
      let rec try_roots r =
        if r >= k then None
        else
          let parent, order = root_tree k adjacency r in
          if free_connex_ok edges parent r ~output then
            Some (make hypergraph labels parent r order)
          else try_roots (r + 1)
      in
      try_roots 0
  in
  let rec search = function
    | [] -> None
    | tree :: rest -> ( match try_tree tree with Some t -> Some t | None -> search rest)
  in
  if k = 1 then
    Some (make hypergraph labels [| -1 |] 0 [ 0 ])
  else search (all_trees k)

(** Build with an explicit rooted tree (parents as child->parent label
    pairs); validates the running-intersection property. *)
let of_parents hypergraph ~root ~parents =
  let edges = Array.of_list hypergraph.Hypergraph.edges in
  let k = Array.length edges in
  let labels = Array.map (fun e -> e.Hypergraph.label) edges in
  let index_of l =
    let rec go i =
      if i >= k then invalid_arg ("Join_tree.of_parents: unknown label " ^ l)
      else if String.equal labels.(i) l then i
      else go (i + 1)
    in
    go 0
  in
  let adjacency = Array.make k [] in
  List.iter
    (fun (c, p) ->
      let ci = index_of c and pi = index_of p in
      adjacency.(ci) <- pi :: adjacency.(ci);
      adjacency.(pi) <- ci :: adjacency.(pi))
    parents;
  if not (running_intersection edges adjacency) then
    invalid_arg "Join_tree.of_parents: not a join tree (running intersection fails)";
  let root_idx = index_of root in
  let parent, order = root_tree k adjacency root_idx in
  (* check the provided parents match the rooting *)
  List.iter
    (fun (c, p) ->
      if parent.(index_of c) <> index_of p then
        invalid_arg "Join_tree.of_parents: parent list inconsistent with root")
    parents;
  make hypergraph labels parent root_idx order

(** Does this rooted tree witness free-connexity for [output]? *)
let satisfies_free_connex t ~output =
  let edges = Array.of_list t.hypergraph.Hypergraph.edges in
  let k = Array.length edges in
  let labels = Array.map (fun e -> e.Hypergraph.label) edges in
  let index_of l =
    let rec go i = if String.equal labels.(i) l then i else go (i + 1) in
    go 0
  in
  let parent = Array.make k (-1) in
  Hashtbl.iter (fun c p -> parent.(index_of c) <- index_of p) t.parent;
  free_connex_ok edges parent (index_of t.root) ~output

let pp fmt t =
  let rec node fmt label =
    match children t label with
    | [] -> Fmt.pf fmt "%s" label
    | cs -> Fmt.pf fmt "@[<hov 2>%s(%a)@]" label Fmt.(list ~sep:comma node) cs
  in
  node fmt t.root
