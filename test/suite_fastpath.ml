(* The simulator's fast per-access machinery (MRU block filters,
   allocation-free lookups, the monomorphic machine hit path) must be
   invisible in every simulated number, checked here against pinned
   whole-run fingerprints and against reference models; and the
   parallel experiment runner must reproduce serial results exactly. *)

module M = Memsim
module CC = Memsim.Cache_config
module Cache = Memsim.Cache
module Hierarchy = Memsim.Hierarchy
module Machine = Memsim.Machine
module Tlb = Memsim.Tlb
module OC = Olden.Common
module J = Obs.Json
module Ref_model = Suite_cache.Ref_model

let stats_tuple (s : Cache.stats) =
  ( s.Cache.reads,
    s.Cache.writes,
    s.Cache.read_misses,
    s.Cache.write_misses,
    s.Cache.evictions,
    s.Cache.writebacks,
    s.Cache.prefetch_installs )

(* ------------------------------------------------------------------ *)
(* Whole Olden benchmarks against pinned fingerprints                  *)
(* ------------------------------------------------------------------ *)

(* Everything the simulator reports, as one comparable value.  L1/L2
   stats are (reads, writes, read_misses, write_misses, evictions,
   writebacks, prefetch_installs). *)
type fingerprint = {
  checksum : int;
  cost : M.Cost.snapshot;
  l1 : int * int * int * int * int * int * int;
  l2 : int * int * int * int * int * int * int;
  tlb : Tlb.stats option;
}

let pp_fingerprint ppf f =
  let pp_lvl ppf (a, b, c, d, e, g, h) =
    Format.fprintf ppf "(%d, %d, %d, %d, %d, %d, %d)" a b c d e g h
  in
  Format.fprintf ppf "checksum=%d %a l1=%a l2=%a%s" f.checksum
    M.Cost.pp_snapshot f.cost pp_lvl f.l1 pp_lvl f.l2
    (match f.tlb with
    | None -> ""
    | Some t -> Printf.sprintf " tlb=%d/%d" t.Tlb.t_hits t.Tlb.t_misses)

let fingerprint_t = Alcotest.testable pp_fingerprint ( = )

(* Returns the fingerprint and the L1 MRU filter hit count, so each test
   can prove the filter actually engaged (a filter that never fires
   would make the pinned comparison vacuous). *)
let olden_fingerprint ?config ?engine ?(treeadd_levels = 10) ~placement which =
  let ctx = OC.make_ctx ?config placement in
  let ctx =
    match engine with
    | None -> ctx
    | Some e ->
        {
          ctx with
          OC.morph_params =
            Some { Ccsl.Ccmorph.default_params with cluster = Ccsl.Ccmorph.Engine e };
        }
  in
  let r =
    match which with
    | `Treeadd ->
        Olden.Treeadd.run
          ~params:{ Olden.Treeadd.levels = treeadd_levels; passes = 2 }
          ~ctx placement
    | `Health ->
        Olden.Health.run
          ~params:
            { Olden.Health.levels = 2; steps = 60; morph_interval = 15;
              seed = 7 }
          ~ctx placement
  in
  let h = Machine.hierarchy ctx.OC.machine in
  ( {
      checksum = r.OC.checksum;
      cost = r.OC.snapshot;
      l1 = stats_tuple (Cache.stats (Hierarchy.l1 h));
      l2 = stats_tuple (Cache.stats (Hierarchy.l2 h));
      tlb = Option.map Tlb.stats (Hierarchy.tlb h);
    },
    Cache.mru_filter_hits (Hierarchy.l1 h) )

let cost s_busy s_load_stall s_store_stall =
  {
    M.Cost.s_busy;
    s_load_stall;
    s_store_stall;
    s_prefetch_issue = 0;
    s_total = s_busy + s_load_stall + s_store_stall;
  }

(* Recorded from the simulator before its reference arms were removed,
   when these runs were checked bit-identical against them. *)
let pinned_treeadd_base =
  {
    checksum = 1023;
    cost = cost 8184 2295 0;
    l1 = (6138, 0, 255, 0, 255, 0, 0);
    l2 = (255, 0, 0, 0, 0, 0, 0);
    tlb = None;
  }

let pinned_treeadd_clcol =
  {
    checksum = 1023;
    cost = cost 8184 0 0;
    l1 = (6138, 0, 0, 0, 0, 0, 0);
    l2 = (0, 0, 0, 0, 0, 0, 0);
    tlb = None;
  }

let pinned_health_base =
  {
    checksum = 434426;
    cost = cost 185518 26559 11880;
    l1 = (69003, 30949, 2951, 240, 3063, 0, 0);
    l2 = (2951, 240, 0, 162, 0, 0, 0);
    tlb = None;
  }

let pinned_health_clcol =
  {
    checksum = 434426;
    cost = cost 184384 93500 38277;
    l1 = (70472, 34657, 10381, 933, 11186, 0, 0);
    l2 = (10381, 933, 0, 498, 77, 77, 0);
    tlb = None;
  }

(* 2^15-node treeadd on the UltraSPARC with its 64-entry TLB: the tree
   outgrows TLB reach, so the pin covers TLB misses too. *)
let pinned_treeadd_tlb =
  {
    checksum = 32767;
    cost = cost 262136 396484 0;
    l1 = (196602, 0, 65534, 0, 65534, 0, 0);
    l2 = (65534, 0, 0, 0, 0, 0, 0);
    tlb = Some { Tlb.t_hits = 196520; t_misses = 82 };
  }

let check_pinned ?config ?engine ?treeadd_levels which placement pinned () =
  let fp, mru =
    olden_fingerprint ?config ?engine ?treeadd_levels ~placement which
  in
  Alcotest.check fingerprint_t
    "checksum, cycles, misses, evictions and writebacks" pinned fp;
  Alcotest.(check bool) "MRU filter engaged" true (mru > 0)

(* ------------------------------------------------------------------ *)
(* Machine against a memory model and two reference cache levels       *)
(* ------------------------------------------------------------------ *)

(* Random word loads (plain and sign-extending) and stores on the tiny
   machine, with and without an observer attached (the two machine
   paths).  Loaded values must match a hashtable memory; the cycle
   count must equal the latencies implied by two [Ref_model] levels (L2
   is consulted only on an L1 miss; no prefetching, no TLB). *)
let prop_machine_matches_models =
  QCheck.Test.make ~count:100 ~name:"machine matches memory and LRU models"
    QCheck.(
      pair bool
        (list_of_size (Gen.int_range 1 300)
           (triple (int_bound 8191) (int_bound 2) int)))
    (fun (observed, ops) ->
      let cfg = M.Config.tiny () in
      let m = Machine.create cfg in
      if observed then ignore (Machine.subscribe m (fun _ _ -> ()));
      let base = Machine.reserve m ~bytes:32768 ~align:64 in
      let mem = Hashtbl.create 64 in
      let l1 = Ref_model.create cfg.M.Config.l1 in
      let l2 = Ref_model.create cfg.M.Config.l2 in
      let lat = cfg.M.Config.latencies in
      let cycles = ref 0 in
      let step (a, kind, v) =
        let addr = base + (a * 4) in
        let write = kind = 2 in
        cycles :=
          !cycles
          + (if Ref_model.access l1 ~write addr then lat.Hierarchy.l1_hit
             else if Ref_model.access l2 ~write addr then
               lat.Hierarchy.l1_hit + lat.Hierarchy.l1_miss
             else lat.Hierarchy.l1_hit + lat.Hierarchy.l1_miss + lat.Hierarchy.l2_miss);
        let word = Option.value (Hashtbl.find_opt mem addr) ~default:0 in
        match kind with
        | 0 -> Machine.load32 m addr = word
        | 1 ->
            Machine.load32s m addr
            = if word land 0x80000000 <> 0 then word - 0x100000000 else word
        | _ ->
            Machine.store32 m addr v;
            Hashtbl.replace mem addr (v land 0xffffffff);
            true
      in
      let h = Machine.hierarchy m in
      List.for_all step ops
      && Machine.cycles m = !cycles
      && Cache.stats (Hierarchy.l1 h) = Ref_model.stats l1
      && Cache.stats (Hierarchy.l2 h) = Ref_model.stats l2)

(* The MRU-filtered [Cache.access] against the list-based LRU model,
   which keeps no memo: every answer and every counter must agree. *)
let prop_cache_filtered_equals_ref =
  QCheck.Test.make ~count:100
    ~name:"MRU-filtered cache access equals unmemoized reference"
    QCheck.(list_of_size (Gen.int_range 1 300) (pair (int_bound 2047) bool))
    (fun ops ->
      let cfg = CC.v ~name:"p" ~sets:4 ~assoc:2 ~block_bytes:16 () in
      let c = Cache.create cfg in
      let r = Ref_model.create cfg in
      List.for_all
        (fun (a, write) ->
          let addr = a * 4 in
          Cache.access c ~write addr = Ref_model.access r ~write addr)
        ops
      && Cache.stats c = Ref_model.stats r)

let test_mru_filter_counts () =
  let c = Cache.create (CC.v ~name:"m" ~sets:4 ~assoc:2 ~block_bytes:16 ()) in
  (* miss installs the block and primes the memo; the next three
     same-block accesses are pure filter hits *)
  ignore (Cache.access c ~write:false 0);
  ignore (Cache.access c ~write:false 4);
  ignore (Cache.access c ~write:false 8);
  ignore (Cache.access c ~write:true 12);
  Alcotest.(check int) "filter hits" 3 (Cache.mru_filter_hits c);
  Alcotest.(check int) "demand accesses still counted" 4
    (Cache.accesses (Cache.stats c))

let test_mru_filter_reset () =
  let c = Cache.create (CC.v ~name:"m" ~sets:4 ~assoc:2 ~block_bytes:16 ()) in
  for k = 0 to 9 do
    ignore (Cache.access c ~write:false (k land 3))
  done;
  Alcotest.(check int) "primed" 9 (Cache.mru_filter_hits c);
  Cache.reset_stats c;
  Alcotest.(check int) "reset with the stats" 0 (Cache.mru_filter_hits c);
  ignore (Cache.access c ~write:false 0);
  Alcotest.(check bool) "filter hits <= accesses" true
    (Cache.mru_filter_hits c <= Cache.accesses (Cache.stats c))

(* ------------------------------------------------------------------ *)
(* Machine.subscribe: O(1) prepend, stable observer order              *)
(* ------------------------------------------------------------------ *)

let test_subscription_order () =
  let m = Machine.create (M.Config.tiny ()) in
  let base = Machine.reserve m ~bytes:64 ~align:64 in
  let fired = ref [] in
  let obs tag = fun _write _addr -> fired := tag :: !fired in
  let _s1 = Machine.subscribe m (obs 1) in
  let s2 = Machine.subscribe m (obs 2) in
  let _s3 = Machine.subscribe m (obs 3) in
  ignore (Machine.load32 m base);
  Alcotest.(check (list int))
    "observers fire in subscription order" [ 1; 2; 3 ] (List.rev !fired);
  fired := [];
  Machine.unsubscribe m s2;
  ignore (Machine.load32 m base);
  Alcotest.(check (list int))
    "order stable after unsubscribing the middle observer" [ 1; 3 ]
    (List.rev !fired);
  (* the tracer is a subscription that fires first, whenever it is set *)
  let fires expected what =
    fired := [];
    ignore (Machine.load32 m base);
    Alcotest.(check (list int)) what expected (List.rev !fired)
  in
  Machine.set_tracer m (Some (obs 0));
  fires [ 0; 1; 3 ] "a tracer set after the subscriptions fires first";
  Machine.set_tracer m (Some (obs 9));
  fires [ 9; 1; 3 ] "replacing the tracer keeps one copy";
  Machine.set_tracer m None;
  fires [ 1; 3 ] "removing the tracer leaves the subscriptions attached"

(* ------------------------------------------------------------------ *)
(* MSHR table: fixed slots, deterministic drain, demand absorption     *)
(* ------------------------------------------------------------------ *)

let small_hier mshrs =
  Hierarchy.create ~mshrs
    ~l1:(CC.v ~name:"l1" ~sets:4 ~assoc:1 ~block_bytes:16 ())
    ~l2:(CC.v ~name:"l2" ~sets:8 ~assoc:2 ~block_bytes:16 ())
    ~latencies:{ Hierarchy.l1_hit = 1; l1_miss = 9; l2_miss = 60 }
    ()

let test_mshr_table () =
  let h = small_hier 2 in
  Hierarchy.prefetch h ~now:0 0x1000;
  Hierarchy.prefetch h ~now:0 0x2000;
  Alcotest.(check int) "both slots in flight" 2 (Hierarchy.pending_prefetches h);
  (* table full and neither fill complete: the third request is dropped *)
  Hierarchy.prefetch h ~now:0 0x3000;
  Alcotest.(check int) "still two" 2 (Hierarchy.pending_prefetches h);
  Alcotest.(check int) "drop counted" 1 (Hierarchy.sw_prefetches_dropped h);
  (* much later both fills are complete; scheduling drains them first *)
  Hierarchy.prefetch h ~now:1000 0x4000;
  Alcotest.(check int) "drained then refilled" 1
    (Hierarchy.pending_prefetches h);
  Alcotest.(check bool) "drained block installed in L2" true
    (Cache.probe (Hierarchy.l2 h) 0x1000);
  (* a demand access absorbs an in-flight fill: latency is capped by the
     remaining time, never worse than a plain miss *)
  Hierarchy.prefetch h ~now:1500 0x5000;
  let lat = Hierarchy.access h ~now:1510 ~write:false 0x5000 in
  Alcotest.(check int) "absorbed latency 1+9+min(59,60)" 69 lat;
  let consumed, saved = Hierarchy.prefetches_consumed h in
  Alcotest.(check int) "consumed" 1 consumed;
  Alcotest.(check int) "cycles saved" 1 saved

(* ------------------------------------------------------------------ *)
(* Parallel runner                                                     *)
(* ------------------------------------------------------------------ *)

let toy_jobs =
  List.init 5 (fun i ->
      ( "job" ^ string_of_int i,
        fun () -> (i, J.Obj [ ("i", J.Int i); ("sq", J.Int (i * i)) ]) ))

let test_parallel_matches_serial () =
  let serial = Harness.Parallel.map ~parallel:false toy_jobs in
  let par = Harness.Parallel.map ~parallel:true toy_jobs in
  Alcotest.(check bool) "same results, same order" true
    (List.for_all2 (fun (i1, j1) (i2, j2) -> i1 = i2 && J.equal j1 j2)
       serial par)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Run [jobs] forked and expect a [Failure] whose message names [job]
   and mentions [why]. *)
let expect_job_failure ~job ~why jobs =
  match Harness.Parallel.map ~parallel:true jobs with
  | _ -> Alcotest.fail ("expected job " ^ job ^ " to fail")
  | exception Failure msg ->
      Alcotest.(check bool) ("names the job: " ^ msg) true (contains job msg);
      Alcotest.(check bool) ("gives the cause: " ^ msg) true (contains why msg)

let test_parallel_error_propagates () =
  expect_job_failure ~job:"bad" ~why:"boom"
    [
      ("bad", fun () -> failwith "boom");
      ("ok", fun () -> 1);
      ("ok2", fun () -> 2);
    ];
  (* every child was reaped before the failure was raised *)
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | pid, _ -> Alcotest.failf "child %d left unreaped" pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let test_parallel_killed_child () =
  expect_job_failure ~job:"killed" ~why:"signal"
    [
      ( "killed",
        fun () ->
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          0 );
    ]

let test_parallel_silent_child () =
  expect_job_failure ~job:"silent" ~why:"truncated"
    [ ("silent", fun () -> (Unix._exit 0 : int)) ]

let test_parallel_closure_result () =
  expect_job_failure ~job:"closure" ~why:"not marshallable"
    [ ("closure", fun () -> Some succ) ]

let test_parallel_large_results () =
  (* 1 MiB each, far past the pipe buffer: children block on write
     until the parent drains them in order *)
  let big c = String.make (1 lsl 20) c in
  let results =
    Harness.Parallel.map ~parallel:true
      (List.map
         (fun c -> (String.make 1 c, fun () -> big c))
         [ 'a'; 'b'; 'c' ])
  in
  Alcotest.(check bool) "intact and in job order" true
    (results = [ big 'a'; big 'b'; big 'c' ])

(* ------------------------------------------------------------------ *)
(* Arm results across the fork pipe                                    *)
(* ------------------------------------------------------------------ *)

let fake_result =
  {
    OC.r_label = "Cl+Col";
    checksum = 424242;
    snapshot =
      {
        M.Cost.s_busy = 100;
        s_load_stall = 40;
        s_store_stall = 10;
        s_prefetch_issue = 2;
        s_total = 152;
      };
    l1_miss_rate = 0.125;
    l2_miss_rate = 0.5;
    l2_misses_per_ref = 0.0625;
    memory_bytes = 8192;
    structures_bytes = 6144;
  }

let test_arm_pipe_roundtrip () =
  let rec_json = J.Obj [ ("color_frac", J.Float 0.25) ] in
  let arm =
    {
      Harness.Adaptive.arm_label = "static";
      arm_result = fake_result;
      arm_advisor = None;
      arm_policy = None;
    }
  in
  match
    Harness.Parallel.map ~parallel:true
      [
        ("with", fun () -> (arm, Some rec_json));
        (* and with no recommendation attached *)
        ("without", fun () -> (arm, None));
      ]
  with
  | [ (arm', rec'); (arm'', rec'') ] ->
      Alcotest.(check bool) "arm survives" true (arm = arm');
      Alcotest.(check bool) "recommendation survives" true
        (match rec' with Some j -> J.equal j rec_json | None -> false);
      Alcotest.(check bool) "None round-trips" true
        (arm = arm'' && rec'' = None)
  | _ -> Alcotest.fail "one result per job"

let tests =
  [
    ( "fastpath",
      [
        Alcotest.test_case "differential treeadd (base)" `Quick
          (check_pinned `Treeadd OC.Base pinned_treeadd_base);
        Alcotest.test_case "differential treeadd (cluster+color)" `Quick
          (check_pinned `Treeadd OC.Ccmorph_cluster_color pinned_treeadd_clcol);
        Alcotest.test_case "differential health (base)" `Quick
          (check_pinned `Health OC.Base pinned_health_base);
        Alcotest.test_case "differential health (cluster+color)" `Quick
          (check_pinned `Health OC.Ccmorph_cluster_color pinned_health_clcol);
        Alcotest.test_case "pinned treeadd with TLB (subtree)" `Quick
          (check_pinned
             ~config:(M.Config.ultrasparc_e5000 ~tlb:true ())
             ~engine:Layout.Engine.subtree ~treeadd_levels:15 `Treeadd
             OC.Ccmorph_cluster_color pinned_treeadd_tlb);
        Alcotest.test_case "MRU filter hit accounting" `Quick
          test_mru_filter_counts;
        Alcotest.test_case "MRU filter hits reset with stats" `Quick
          test_mru_filter_reset;
        Alcotest.test_case "subscription order" `Quick test_subscription_order;
        Alcotest.test_case "MSHR fixed-slot table" `Quick test_mshr_table;
        Alcotest.test_case "parallel runner matches serial" `Quick
          test_parallel_matches_serial;
        Alcotest.test_case "parallel runner propagates errors" `Quick
          test_parallel_error_propagates;
        Alcotest.test_case "parallel runner reports a killed child" `Quick
          test_parallel_killed_child;
        Alcotest.test_case "parallel runner rejects a missing payload" `Quick
          test_parallel_silent_child;
        Alcotest.test_case "parallel runner rejects closures" `Quick
          test_parallel_closure_result;
        Alcotest.test_case "parallel runner carries large results" `Quick
          test_parallel_large_results;
        Alcotest.test_case "arm payload round-trip" `Quick
          test_arm_pipe_roundtrip;
        QCheck_alcotest.to_alcotest prop_cache_filtered_equals_ref;
        QCheck_alcotest.to_alcotest prop_machine_matches_models;
      ] );
  ]
