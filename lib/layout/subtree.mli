(** The paper's subtree clustering (Section 2.1) behind the engine
    interface: pack each block with a cluster root plus descendants in
    breadth-first order, up to [k] nodes; children that do not fit seed
    later clusters; consecutive under-full clusters merge.  The
    Section 2.1 spatial-locality factor of its blocks is
    [Ccsl.Model.Ctree.k]. *)

val plan : Tree.t -> k:int -> Plan.t
(** @raise Invalid_argument if [k < 1] or the tree is malformed. *)
