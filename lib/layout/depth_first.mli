(** The paper's depth-first clustering baseline behind the engine
    interface: chunk the depth-first preorder into consecutive
    [k]-element blocks.  Its Section 2.1 spatial-locality factor is
    [Ccsl.Model.Ctree.k_depth_first]. *)

val plan : Tree.t -> k:int -> Plan.t
(** @raise Invalid_argument if [k < 1] or the tree is malformed. *)
