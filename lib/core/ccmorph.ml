module A = Memsim.Addr
module Machine = Memsim.Machine
module Cache_config = Memsim.Cache_config

type desc = {
  elem_bytes : int;
  kid_offsets : int array;
  parent_offset : int option;
  kid_filter : (int -> bool) option;
}

let plain_desc ~elem_bytes ~kid_offsets =
  { elem_bytes; kid_offsets; parent_offset = None; kid_filter = None }

type cluster_scheme =
  | Subtree
  | Depth_first
  | Engine of Layout.Engine.t

let engine_of_scheme = function
  | Subtree -> Layout.Engine.subtree
  | Depth_first -> Layout.Engine.depth_first
  | Engine e -> e

let scheme_name s = (engine_of_scheme s).Layout.Engine.name

type params = {
  cluster : cluster_scheme;
  color : bool;
  color_frac : float;
  color_first_set : int;
  page_aware : bool;
  weights : (Memsim.Addr.t -> float) option;
}

let default_params =
  {
    cluster = Subtree;
    color = true;
    color_frac = 0.5;
    color_first_set = 0;
    page_aware = true;
    weights = None;
  }

let debug_check_plans = ref false

type result = {
  new_root : Memsim.Addr.t;
  new_roots : Memsim.Addr.t array;
  nodes : int;
  blocks_used : int;
  hot_blocks : int;
  bytes_copied : int;
  pages_used : int;
}

(* A session remembers the block addresses the previous morph handed out
   and a stable per-element identity, so a structure that is re-morphed
   periodically (health's lists, an adaptive policy's re-triggers) keeps
   landing in the same footprint instead of marching through fresh
   address space — and keeps the same hot cache region, whose capacity
   is a property of the cache, not of how many times we morphed. *)
type session = {
  mutable s_hot : A.t list;  (* reusable hot-region block addresses *)
  mutable s_cold : A.t list;  (* reusable cold/uncolored block addresses *)
  mutable s_ids : (A.t, int) Hashtbl.t;  (* current elem addr -> stable id *)
  mutable s_next_id : int;
  mutable s_key : (bool * float * int) option;  (* coloring geometry guard *)
  mutable s_morphs : int;
}

let session () =
  {
    s_hot = [];
    s_cold = [];
    s_ids = Hashtbl.create 256;
    s_next_id = 0;
    s_key = None;
    s_morphs = 0;
  }

let elem_id s addr = Hashtbl.find_opt s.s_ids addr
let session_morphs s = s.s_morphs

(* Discover the structure with a timed breadth-first traversal.  Each
   element is read exactly once: its bytes are buffered so the copy
   phase is write-only (a second scattered read pass over a structure
   larger than the cache would roughly double the reorganization
   cost). *)
let discover m desc roots =
  let is_ptr w =
    (not (A.is_null w))
    && match desc.kid_filter with None -> true | Some f -> f w
  in
  let index_of = Hashtbl.create 1024 in
  let addrs = ref [] in
  let images = ref [] in
  let n = ref 0 in
  let q = Queue.create () in
  let mem = Machine.memory m in
  let snapshot addr =
    (* one timed read of the whole element; field extraction below is
       untimed (the element is in cache/registers now) *)
    Machine.touch m addr ~bytes:desc.elem_bytes;
    let img = Bytes.create desc.elem_bytes in
    for i = 0 to desc.elem_bytes - 1 do
      Bytes.unsafe_set img i (Char.unsafe_chr (Memsim.Memory.load8 mem (addr + i)))
    done;
    img
  in
  Array.iter
    (fun r ->
      if not (A.is_null r) then begin
        if Hashtbl.mem index_of r then
          invalid_arg "Ccmorph: duplicate root";
        Hashtbl.replace index_of r !n;
        addrs := r :: !addrs;
        images := snapshot r :: !images;
        incr n;
        Queue.add r q
      end)
    roots;
  let kids_rev = ref [] in
  (* BFS assigns indices in discovery order, so kids lists arrive in the
     same order as indices; collect per-node kid lists as we pop. *)
  while not (Queue.is_empty q) do
    let addr = Queue.pop q in
    let my_kids = ref [] in
    Array.iter
      (fun off ->
        let kid = Machine.uload32 m (addr + off) in
        if is_ptr kid then begin
          if Hashtbl.mem index_of kid then
            invalid_arg "Ccmorph: structure is not tree-shaped";
          Hashtbl.replace index_of kid !n;
          addrs := kid :: !addrs;
          images := snapshot kid :: !images;
          my_kids := !n :: !my_kids;
          incr n;
          Queue.add kid q
        end)
      desc.kid_offsets;
    kids_rev := List.rev !my_kids :: !kids_rev
  done;
  let addrs = Array.of_list (List.rev !addrs) in
  let images = Array.of_list (List.rev !images) in
  let kids = Array.of_list (List.rev !kids_rev) in
  (addrs, images, kids, index_of)

let do_morph ?session params m desc roots =
  let block_bytes = Machine.l2_block_bytes m in
  if desc.elem_bytes > block_bytes then
    invalid_arg "Ccmorph: element larger than an L2 block";
  if desc.elem_bytes < 4 then invalid_arg "Ccmorph: element too small";
  let old_addrs, images, kids, index_of = discover m desc roots in
  let n = Array.length old_addrs in
  if n = 0 then
    {
      new_root = A.null;
      new_roots = Array.map (fun _ -> A.null) roots;
      nodes = 0;
      blocks_used = 0;
      hot_blocks = 0;
      bytes_copied = 0;
      pages_used = 0;
    }
  else begin
    let k = max 1 (block_bytes / desc.elem_bytes) in
    let root_ids =
      Array.to_list roots
      |> List.filter_map (fun r ->
             if A.is_null r then None else Some (Hashtbl.find index_of r))
    in
    let engine = engine_of_scheme params.cluster in
    let tree =
      Layout.Tree.v
        ?weight:
          (Option.map (fun f v -> f old_addrs.(v)) params.weights)
        ~n
        ~kids:(fun v -> kids.(v))
        ~roots:root_ids ()
    in
    let plan = engine.Layout.Engine.plan tree ~k in
    if !debug_check_plans then Layout.Plan.check plan ~n ~k;
    let nblocks = Array.length plan.Layout.Plan.blocks in
    (* Address-assignment order: the plan emits blocks breadth-first
       (nearest the root first), which is what coloring wants for its hot
       prefix; the remaining blocks are laid out in depth-first
       first-visit order so that a pointer path's successive cold blocks
       stay on the same virtual-memory pages (the paper's ccmorph is
       explicitly page-aware). *)
    let dfs_block_order =
      let seen = Array.make nblocks false in
      let out = ref [] in
      let rec go v =
        let b = plan.Layout.Plan.block_of_node.(v) in
        if not seen.(b) then begin
          seen.(b) <- true;
          out := b :: !out
        end;
        List.iter go kids.(v)
      in
      List.iter go root_ids;
      Array.of_list (List.rev !out)
    in
    (* Build the coloring once; both the address generator and the hot
       capacity below share it. *)
    let coloring =
      if params.color then
        Some
          (Coloring.v ~color_frac:params.color_frac
             ~hot_first_set:params.color_first_set
             ~l2:(Machine.config m).Memsim.Config.l2
             ~page_bytes:(Machine.page_bytes m) ())
      else None
    in
    let hot_cap =
      match coloring with
      | Some c -> min nblocks (Coloring.hot_capacity_blocks c)
      | None -> 0
    in
    (* Session recycling: prefer block addresses the previous morph of
       this structure used (in the same order, so an unchanged structure
       re-morphs to identical addresses); only draw fresh blocks for
       growth.  The avail lists are consumed, the used lists written back
       to the session below. *)
    let hot_avail, cold_avail =
      match session with
      | None -> (ref [], ref [])
      | Some s ->
          let key = (params.color, params.color_frac, params.color_first_set) in
          if s.s_key <> Some key then begin
            (* coloring geometry changed: cached addresses belong to the
               wrong regions, start over *)
            s.s_key <- Some key;
            s.s_hot <- [];
            s.s_cold <- []
          end;
          (ref s.s_hot, ref s.s_cold)
    in
    let hot_used = ref [] and cold_used = ref [] in
    let take avail fresh used =
      let a =
        match !avail with
        | a :: rest ->
            avail := rest;
            a
        | [] -> fresh ()
      in
      used := a :: !used;
      a
    in
    let hot_blocks = ref 0 in
    let block_addr : int -> A.t =
      match coloring with
      | Some coloring ->
          let ar = lazy (Coloring.arenas m coloring) in
          fun j ->
            if j < hot_cap then begin
              incr hot_blocks;
              take hot_avail
                (fun () -> Coloring.next_hot_block (Lazy.force ar))
                hot_used
            end
            else
              take cold_avail
                (fun () -> Coloring.next_cold_block (Lazy.force ar))
                cold_used
      | None ->
          let next = ref A.null in
          let left = ref 0 in
          let fresh () =
            if !left = 0 then begin
              (* Draw a page-aligned run of blocks at a time. *)
              let bytes = Machine.page_bytes m in
              next := Machine.reserve m ~bytes ~align:(Machine.page_bytes m);
              left := bytes / block_bytes
            end;
            let a = !next in
            next := a + block_bytes;
            decr left;
            a
          in
          fun _ -> take cold_avail fresh cold_used
    in
    (* Assign block base addresses: the plan's hot prefix first, then
       the cold blocks in the page order the engine asked for.  Engines
       whose plan order is already the intended page order (vEB's
       recursive subdivision, weighted's hottest-first chains) declare
       [Plan_order] — re-sorting those by dfs first-visit would destroy
       the very locality they computed. *)
    let block_base = Array.make nblocks A.null in
    for j = 0 to hot_cap - 1 do
      block_base.(j) <- block_addr j
    done;
    (match (engine.Layout.Engine.cold_order, params.page_aware) with
    | Layout.Engine.Dfs_first_visit, true ->
        Array.iter
          (fun j -> if j >= hot_cap then block_base.(j) <- block_addr j)
          dfs_block_order
    | Layout.Engine.Plan_order, _ | Layout.Engine.Dfs_first_visit, false ->
        for j = hot_cap to nblocks - 1 do
          block_base.(j) <- block_addr j
        done);
    (* Copy nodes block by block; new addresses pack elements tightly
       within each block and never straddle it. *)
    let new_addrs = Array.make n A.null in
    let bytes_copied = ref 0 in
    let mem = Machine.memory m in
    Array.iteri
      (fun j members ->
        let base = block_base.(j) in
        Array.iteri
          (fun pos v ->
            let dst = base + (pos * desc.elem_bytes) in
            new_addrs.(v) <- dst;
            Machine.touch m ~write:true dst ~bytes:desc.elem_bytes;
            let img = images.(v) in
            for i = 0 to desc.elem_bytes - 1 do
              Memsim.Memory.store8 mem (dst + i) (Char.code (Bytes.unsafe_get img i))
            done;
            bytes_copied := !bytes_copied + desc.elem_bytes)
          members)
      plan.Layout.Plan.blocks;
    (* Rewrite child (and parent) pointers in the copies. *)
    let rewrite v =
      let na = new_addrs.(v) in
      Array.iter
        (fun off ->
          let old_kid = Machine.uload32 m (na + off) in
          let is_ptr =
            (not (A.is_null old_kid))
            && match desc.kid_filter with None -> true | Some f -> f old_kid
          in
          if is_ptr then
            Machine.store_ptr m (na + off)
              new_addrs.(Hashtbl.find index_of old_kid))
        desc.kid_offsets;
      match desc.parent_offset with
      | None -> ()
      | Some off -> (
          let old_parent = Machine.uload32 m (na + off) in
          let is_ptr =
            (not (A.is_null old_parent))
            &&
            match desc.kid_filter with None -> true | Some f -> f old_parent
          in
          if is_ptr then
            match Hashtbl.find_opt index_of old_parent with
            | Some i -> Machine.store_ptr m (na + off) new_addrs.(i)
            | None ->
                (* The parent lies outside the morphed set — this morph
                   covers a subtree of a larger structure.  The old
                   address would dangle into the abandoned copy, so null
                   it; the paper's "liberal" trees tolerate a null
                   predecessor at the reorganized region's boundary. *)
                Machine.store_ptr m (na + off) A.null)
    in
    for v = 0 to n - 1 do
      rewrite v
    done;
    let new_roots =
      Array.map
        (fun r ->
          if A.is_null r then A.null
          else new_addrs.(Hashtbl.find index_of r))
        roots
    in
    let pages_used =
      let pages = Hashtbl.create 64 in
      Array.iter
        (fun base ->
          Hashtbl.replace pages
            (A.page_index base ~page_bytes:(Machine.page_bytes m)) ())
        block_base;
      Hashtbl.length pages
    in
    (match session with
    | None -> ()
    | Some s ->
        (* Keep leftover cached addresses (structure shrank) behind the
           ones just used, so a later regrowth reclaims them. *)
        s.s_hot <- List.rev !hot_used @ !hot_avail;
        s.s_cold <- List.rev !cold_used @ !cold_avail;
        let ids = Hashtbl.create (2 * n) in
        for v = 0 to n - 1 do
          let id =
            match Hashtbl.find_opt s.s_ids old_addrs.(v) with
            | Some id -> id
            | None ->
                let id = s.s_next_id in
                s.s_next_id <- id + 1;
                id
          in
          Hashtbl.replace ids new_addrs.(v) id
        done;
        s.s_ids <- ids;
        s.s_morphs <- s.s_morphs + 1);
    {
      new_root = (if Array.length new_roots > 0 then new_roots.(0) else A.null);
      new_roots;
      nodes = n;
      blocks_used = nblocks;
      hot_blocks = !hot_blocks;
      bytes_copied = !bytes_copied;
      pages_used;
    }
  end

type observation = {
  obs_machine : Memsim.Machine.t;
  obs_desc : desc;
  obs_params : params;
  obs_result : result;
}

type observer_id = int

let observers : (observer_id * (observation -> unit)) list ref = ref []
let next_observer = ref 0

let add_observer f =
  let id = !next_observer in
  incr next_observer;
  observers := !observers @ [ (id, f) ];
  id

let remove_observer id =
  observers := List.filter (fun (i, _) -> i <> id) !observers

let observed params m desc result =
  if result.nodes > 0 then
    List.iter
      (fun (_, f) ->
        f
          {
            obs_machine = m;
            obs_desc = desc;
            obs_params = params;
            obs_result = result;
          })
      !observers;
  result

let morph ?(params = default_params) ?session m desc ~root =
  observed params m desc (do_morph ?session params m desc [| root |])

let morph_forest ?(params = default_params) ?session m desc ~roots =
  observed params m desc (do_morph ?session params m desc roots)
