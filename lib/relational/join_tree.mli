(** Rooted join trees (paper §3.1): nodes are the query's relations, and
    for every attribute the nodes containing it form a connected subtree
    (running intersection). A free-connex query admits a rooted tree in
    which no non-output attribute's TOP node properly dominates an output
    attribute's TOP node — condition (2) of §3.1 — which [build] searches
    for exactly (queries have few relations). *)

type t

val attrs : t -> string -> Schema.t
val node_labels : t -> string list
val parent_of : t -> string -> string option
val root : t -> string
val children : t -> string -> string list

(** Non-root nodes paired with their parents, children before parents. *)
val bottom_up_edges : t -> (string * string) list

(** Find a rooted join tree witnessing free-connexity; [None] when the
    query is cyclic or not free-connex.

    @raise Invalid_argument for empty hypergraphs or more than 8
    relations (supply the tree explicitly instead). *)
val build : Hypergraph.t -> output:Schema.t -> t option

(** Build from an explicit rooted tree; validates the join-tree property
    and the consistency of [parents] with [root].

    @raise Invalid_argument on invalid trees. *)
val of_parents : Hypergraph.t -> root:string -> parents:(string * string) list -> t

(** Does this rooted tree witness free-connexity for [output]? *)
val satisfies_free_connex : t -> output:Schema.t -> bool

val pp : Format.formatter -> t -> unit
