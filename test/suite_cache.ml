(* Unit + property tests for the single-level cache simulator, including
   equivalence properties against an LRU reference model (also used by
   the machine- and TLB-level properties in other suites). *)

module C = Memsim.Cache
module CC = Memsim.Cache_config

let dm_cfg = CC.v ~name:"dm" ~sets:4 ~assoc:1 ~block_bytes:16 ()
let sa_cfg = CC.v ~name:"sa" ~sets:2 ~assoc:2 ~block_bytes:16 ()

let test_geometry () =
  Alcotest.(check int) "capacity" 64 (CC.capacity_bytes dm_cfg);
  Alcotest.(check int) "set of addr 0" 0 (CC.set_of_addr dm_cfg 0);
  Alcotest.(check int) "set of addr 16" 1 (CC.set_of_addr dm_cfg 16);
  Alcotest.(check int) "set wraps" 0 (CC.set_of_addr dm_cfg 64);
  Alcotest.(check int) "tag" 4 (CC.tag_of_addr dm_cfg 64);
  Alcotest.check_raises "bad sets"
    (Invalid_argument "Cache_config.v: sets must be a power of two")
    (fun () -> ignore (CC.v ~name:"x" ~sets:3 ~assoc:1 ~block_bytes:16 ()))

let test_hit_miss () =
  let c = C.create dm_cfg in
  Alcotest.(check bool) "cold miss" false (C.access c ~write:false 0);
  Alcotest.(check bool) "hit same block" true (C.access c ~write:false 12);
  Alcotest.(check bool) "miss next block" false (C.access c ~write:false 16);
  let s = C.stats c in
  Alcotest.(check int) "reads" 3 s.C.reads;
  Alcotest.(check int) "read misses" 2 s.C.read_misses

let test_direct_mapped_conflict () =
  let c = C.create dm_cfg in
  (* addresses 0 and 64 map to the same set in a 4-set cache *)
  ignore (C.access c ~write:false 0);
  ignore (C.access c ~write:false 64);
  Alcotest.(check bool) "0 evicted" false (C.probe c 0);
  Alcotest.(check bool) "64 resident" true (C.probe c 64)

let test_assoc_no_conflict () =
  let c = C.create sa_cfg in
  (* 2-way: 0 and 32 share a set but both fit *)
  ignore (C.access c ~write:false 0);
  ignore (C.access c ~write:false 32);
  Alcotest.(check bool) "0 resident" true (C.probe c 0);
  Alcotest.(check bool) "32 resident" true (C.probe c 32);
  (* third block in the set evicts the LRU (0) *)
  ignore (C.access c ~write:false 64);
  Alcotest.(check bool) "0 evicted" false (C.probe c 0);
  Alcotest.(check bool) "32 kept" true (C.probe c 32)

let test_lru_order () =
  let c = C.create sa_cfg in
  ignore (C.access c ~write:false 0);
  ignore (C.access c ~write:false 32);
  (* touch 0 so 32 becomes LRU *)
  ignore (C.access c ~write:false 0);
  ignore (C.access c ~write:false 64);
  Alcotest.(check bool) "32 evicted" false (C.probe c 32);
  Alcotest.(check bool) "0 kept" true (C.probe c 0)

let test_writeback_accounting () =
  let c = C.create (CC.v ~name:"wb" ~sets:1 ~assoc:1 ~block_bytes:16 ()) in
  ignore (C.access c ~write:true 0);
  ignore (C.access c ~write:false 16);
  Alcotest.(check int) "one writeback" 1 (C.stats c).C.writebacks;
  let wt =
    C.create
      (CC.v ~policy:CC.Write_through ~name:"wt" ~sets:1 ~assoc:1
         ~block_bytes:16 ())
  in
  ignore (C.access wt ~write:true 0);
  ignore (C.access wt ~write:false 16);
  Alcotest.(check int) "write-through never writes back" 0
    (C.stats wt).C.writebacks

let test_install_probe_silent () =
  let c = C.create dm_cfg in
  C.install c ~prefetch:true 0;
  Alcotest.(check bool) "installed" true (C.probe c 0);
  let s = C.stats c in
  Alcotest.(check int) "no demand accesses" 0 (C.accesses s);
  Alcotest.(check int) "prefetch installs counted" 1 s.C.prefetch_installs;
  Alcotest.(check bool) "hit after install" true (C.access c ~write:false 0)

let test_invalidate_clear () =
  let c = C.create dm_cfg in
  ignore (C.access c ~write:false 0);
  C.invalidate c 0;
  Alcotest.(check bool) "gone" false (C.probe c 0);
  ignore (C.access c ~write:false 0);
  ignore (C.access c ~write:false 16);
  C.clear c;
  Alcotest.(check int) "empty" 0 (C.resident_blocks c)

let test_occupancy () =
  let c = C.create sa_cfg in
  ignore (C.access c ~write:false 0);
  ignore (C.access c ~write:false 32);
  ignore (C.access c ~write:false 16);
  Alcotest.(check int) "set 0 full" 2 (C.set_occupancy c 0);
  Alcotest.(check int) "set 1 one way" 1 (C.set_occupancy c 1)

(* Reference model: per set, an MRU-first list of (tag, dirty) lines,
   with its own statistics record.  Written for obviousness, not speed;
   the simulator's caches and its TLB are checked against it. *)
module Ref_model = struct
  type t = {
    sets : int;
    assoc : int;
    block : int;
    write_back : bool;
    lists : (int * bool) list array;
    stats : C.stats;
  }

  let create (cfg : CC.t) =
    {
      sets = cfg.CC.sets;
      assoc = cfg.assoc;
      block = cfg.block_bytes;
      write_back = cfg.policy = CC.Write_back;
      lists = Array.make cfg.CC.sets [];
      stats =
        {
          C.reads = 0;
          writes = 0;
          read_misses = 0;
          write_misses = 0;
          evictions = 0;
          writebacks = 0;
          prefetch_installs = 0;
        };
    }

  let stats t = t.stats
  let set_of t tag = tag mod t.sets

  (* Put a new line at the MRU end, evicting the LRU line of a full set. *)
  let insert t tag ~dirty =
    let set = set_of t tag in
    let l = t.lists.(set) in
    let l =
      if List.length l < t.assoc then l
      else
        match List.rev l with
        | (_, was_dirty) :: rest ->
            t.stats.C.evictions <- t.stats.C.evictions + 1;
            if was_dirty then t.stats.C.writebacks <- t.stats.C.writebacks + 1;
            List.rev rest
        | [] -> []
    in
    t.lists.(set) <- (tag, dirty) :: l

  let access t ~write addr =
    let s = t.stats in
    let tag = addr / t.block in
    let set = set_of t tag in
    if write then s.C.writes <- s.C.writes + 1 else s.C.reads <- s.C.reads + 1;
    let dirty = write && t.write_back in
    match List.assoc_opt tag t.lists.(set) with
    | Some was_dirty ->
        t.lists.(set) <-
          (tag, was_dirty || dirty) :: List.remove_assoc tag t.lists.(set);
        true
    | None ->
        if write then s.C.write_misses <- s.C.write_misses + 1
        else s.C.read_misses <- s.C.read_misses + 1;
        insert t tag ~dirty;
        false

  let probe t addr =
    let tag = addr / t.block in
    List.mem_assoc tag t.lists.(set_of t tag)

  (* A present block keeps its LRU position, as in the simulator. *)
  let install t ~prefetch addr =
    if not (probe t addr) then begin
      insert t (addr / t.block) ~dirty:false;
      if prefetch then
        t.stats.C.prefetch_installs <- t.stats.C.prefetch_installs + 1
    end

  let invalidate t addr =
    let tag = addr / t.block in
    let set = set_of t tag in
    t.lists.(set) <- List.remove_assoc tag t.lists.(set)

  let clear t = Array.fill t.lists 0 t.sets []

  let resident t =
    Array.fold_left (fun n l -> n + List.length l) 0 t.lists
end

(* Every cache operation, on write-back and write-through geometries:
   op codes 0-7 read, 8-13 write, 14-15 install, 16 prefetch install,
   17-18 invalidate, 19 clear.  Each access's hit/miss, every probe, the
   full statistics record and the resident-line count must agree. *)
let oracle_configs =
  [|
    CC.v ~name:"wb-2way" ~sets:4 ~assoc:2 ~block_bytes:16 ();
    CC.v ~policy:CC.Write_through ~name:"wt-2way" ~sets:4 ~assoc:2
      ~block_bytes:16 ();
    CC.v ~name:"wb-dm" ~sets:8 ~assoc:1 ~block_bytes:32 ();
    CC.v ~name:"wb-4way" ~sets:2 ~assoc:4 ~block_bytes:16 ();
  |]

let prop_matches_reference =
  QCheck.Test.make ~count:200 ~name:"LRU cache matches reference model"
    QCheck.(
      pair
        (int_bound (Array.length oracle_configs - 1))
        (list_of_size (Gen.int_range 1 300) (pair (int_bound 19) (int_bound 511))))
    (fun (k, ops) ->
      let cfg = oracle_configs.(k) in
      let c = C.create cfg in
      let r = Ref_model.create cfg in
      let step (op, a) =
        let addr = a * 4 in
        if op < 14 then
          let write = op >= 8 in
          C.access c ~write addr = Ref_model.access r ~write addr
        else begin
          (if op < 17 then begin
             C.install c ~prefetch:(op = 16) addr;
             Ref_model.install r ~prefetch:(op = 16) addr
           end
           else if op < 19 then begin
             C.invalidate c addr;
             Ref_model.invalidate r addr
           end
           else begin
             C.clear c;
             Ref_model.clear r
           end);
          C.probe c addr = Ref_model.probe r addr
        end
      in
      List.for_all step ops
      && C.stats c = Ref_model.stats r
      && C.resident_blocks c = Ref_model.resident r)

let prop_miss_bound =
  QCheck.Test.make ~count:100 ~name:"misses never exceed accesses"
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 4095))
    (fun addrs ->
      let c = C.create dm_cfg in
      List.iter (fun a -> ignore (C.access c ~write:false a)) addrs;
      let s = C.stats c in
      C.misses s <= C.accesses s && C.accesses s = List.length addrs)

let prop_last_access_resident =
  QCheck.Test.make ~count:100 ~name:"most recent block always resident"
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 4095))
    (fun addrs ->
      let c = C.create sa_cfg in
      List.for_all
        (fun a ->
          ignore (C.access c ~write:false a);
          C.probe c a)
        addrs)

let tests =
  [
    ( "cache",
      [
        Alcotest.test_case "geometry" `Quick test_geometry;
        Alcotest.test_case "hit/miss basics" `Quick test_hit_miss;
        Alcotest.test_case "direct-mapped conflicts" `Quick
          test_direct_mapped_conflict;
        Alcotest.test_case "associativity absorbs conflicts" `Quick
          test_assoc_no_conflict;
        Alcotest.test_case "true LRU order" `Quick test_lru_order;
        Alcotest.test_case "write policies" `Quick test_writeback_accounting;
        Alcotest.test_case "silent install" `Quick test_install_probe_silent;
        Alcotest.test_case "invalidate and clear" `Quick test_invalidate_clear;
        Alcotest.test_case "set occupancy" `Quick test_occupancy;
        QCheck_alcotest.to_alcotest prop_matches_reference;
        QCheck_alcotest.to_alcotest prop_miss_bound;
        QCheck_alcotest.to_alcotest prop_last_access_resident;
      ] );
  ]
