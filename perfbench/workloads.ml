(* The benchmark's workloads.

   Every workload is a closed loop run by one process on one OCaml
   thread, with no forks: the next operation starts when the previous
   one returns.  A pass is the workload's fixed list of operations;
   [ops ~seed] is its set-up (input generation and machine creation),
   and the closures it returns are the timed part.

   The seed reaches every random input: the Olden health parameters,
   the BST key permutation and the two search-mix generators.  The
   default seed (23) was used while the benchmark was written; the
   held-out seed (101) was not, so a claim can be re-checked on it.
   Both are recorded in baseline.json with their exact simulated
   counts. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module Ccmorph = Ccsl.Ccmorph
module Bst = Structures.Bst
module Rng = Workload.Rng
module C = Olden.Common

let default_seed = 23

(* How an operation's answer is checked.  [Same_in g]: equal to the
   answer of the first operation of group [g] in the same pass.  Every
   answer must also equal the one the same operation gave on the first
   pass. *)
type check = Exactly of int | Same_in of string

type op = {
  name : string;
  check : check;
  observed : bool;  (** attaches observers of its own (off in the twin pass) *)
  run : unit -> int;  (** the timed call; returns the checked answer *)
}

type t = {
  name : string;
  why : string;
  loads : string;
  bypasses : string;
  ops : seed:int -> op list;
}

(* --- kernels, each wrapped in a span around the layer's entry point --- *)

let health_params ?(steps = Olden.Health.default_params.Olden.Health.steps)
    ~levels ~seed () =
  { Olden.Health.default_params with Olden.Health.levels; steps; seed }

let treeadd_params = { Olden.Treeadd.levels = 16; passes = 1 }

let health_kernel params ctx placement =
  Probe.gate_morphs ctx ~interval:params.Olden.Health.morph_interval;
  Probe.span "olden.health.run" (fun () ->
      Olden.Health.run ~params ~measure_whole:true ~ctx placement)

let treeadd_kernel ctx placement =
  Probe.span "olden.treeadd.run" (fun () ->
      Olden.Treeadd.run ~params:treeadd_params ~measure_whole:true ~ctx
        placement)

(* --- health-churn ------------------------------------------------------ *)

let health_churn =
  {
    name = "health-churn";
    why =
      "Olden health at quick scale (levels 4, 365 steps) under the Figure 7 \
       arms B, NA and Cl+Col, with no observers attached.  The live lists \
       exceed the 256 KB L2, so every arm drives millions of L2 misses \
       through the Hierarchy miss path, and every step allocates and frees \
       through malloc or ccmalloc.";
    loads = "memsim (Machine, Hierarchy, Cache, Memory), alloc, ccmalloc";
    bypasses =
      "observers (none attached); layout and ccmorph run only on the \
       short periodic list morphs of the Cl+Col arm";
    ops =
      (fun ~seed ->
        let params = health_params ~levels:4 ~seed () in
        List.map
          (fun placement ->
            let ctx = C.make_ctx placement in
            {
              name = "health." ^ C.label placement;
              check = Same_in "health.checksum";
              observed = false;
              run =
                (fun () ->
                  (health_kernel params (Probe.ctx ctx) placement).C.checksum);
            })
          [ C.Base; C.Ccmalloc_new_block; C.Ccmorph_cluster_color ]);
  }

(* --- tree-layout ------------------------------------------------------- *)

(* The Figure 5 tree deepened past TLB reach: 2^17 - 1 nodes of 20 bytes
   (2.5 MB) against the UltraSPARC TLB's 64 x 8 KB = 512 KB. *)
let bst_levels = 17
let profile_searches = 8_000
let measured_searches = 20_000

(* 90% of searches target a hot 1/16th of the key space, so the profile
   the weighted engine consumes carries signal. *)
let skewed_key rng n =
  if Rng.int rng 10 < 9 then Rng.int rng (max 1 (n / 16)) else Rng.int rng n

let tree_layout =
  {
    name = "tree-layout";
    why =
      "The Figure 5 BST (131071 nodes, past TLB reach) on the UltraSPARC+TLB \
       machine: profiled with Counts, morphed once by each layout engine, \
       then searched from a cold start; plus treeadd under Cl+Col with \
       each engine.  Morphs dominate; the tree is built untimed in set-up.";
    loads = "core.Ccmorph, layout engines, memsim TLB path";
    bypasses =
      "alloc (the BST is built in set-up; only treeadd allocates), L2 miss \
       traffic is light, observers only during the profile";
    ops =
      (fun ~seed ->
        let elem_bytes = Bst.default_elem_bytes in
        let n = (1 lsl bst_levels) - 1 in
        let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
        let keys = Array.init n Fun.id in
        let t =
          Bst.build m ~elem_bytes
            ~alloc:(Alloc.Malloc.allocator (Alloc.Malloc.create m))
            (Bst.Random (Rng.create seed)) ~keys
        in
        let mix r count =
          let rng = Rng.create r in
          Array.init count (fun _ -> skewed_key rng n)
        in
        let profile_keys = mix (seed + 7) profile_searches in
        let search_keys = mix (seed + 17) measured_searches in
        let counts = Obs.Profile.Counts.create () in
        let search tree ks =
          Probe.span "bst.search" (fun () ->
              Array.fold_left
                (fun found k -> if Bst.search tree k then found + 1 else found)
                0 ks)
        in
        let profile =
          {
            name = "bst.profile";
            check = Exactly profile_searches;
            observed = true;
            run =
              (fun () ->
                Probe.use m;
                if Probe.observe () then begin
                  let sub = Obs.Profile.Counts.attach counts m in
                  let found = search t profile_keys in
                  Machine.unsubscribe m sub;
                  Probe.add_events (Obs.Profile.Counts.total counts);
                  found
                end
                else search t profile_keys);
          }
        in
        let engine_ops (e : Layout.Engine.t) =
          let morphed = ref None in
          [
            {
              name = "morph." ^ e.Layout.Engine.name;
              check = Exactly n;
              observed = false;
              run =
                (fun () ->
                  Probe.use m;
                  let params =
                    {
                      Ccmorph.default_params with
                      Ccmorph.cluster = Ccmorph.Engine e;
                      weights =
                        Some (Obs.Profile.Counts.weight_fn counts ~elem_bytes);
                    }
                  in
                  let r =
                    Probe.timed_morph (fun () ->
                        Ccmorph.morph ~params m (Bst.desc ~elem_bytes)
                          ~root:t.Bst.root)
                  in
                  morphed :=
                    Some (Bst.of_root m ~elem_bytes ~n r.Ccmorph.new_root);
                  r.Ccmorph.nodes);
            };
            {
              name = "search." ^ e.Layout.Engine.name;
              check = Same_in "bst.found";
              observed = false;
              run =
                (fun () ->
                  Machine.cold_start m;
                  Probe.use m;
                  match !morphed with
                  | Some tree -> search tree search_keys
                  | None -> failwith "search before its morph");
            };
          ]
        in
        let treeadd_op (e : Layout.Engine.t) =
          let ctx =
            C.make_ctx ~config:(Config.rsim_table1 ~tlb:true ())
              C.Ccmorph_cluster_color
          in
          let ctx =
            {
              ctx with
              C.morph_params =
                Some { Ccmorph.default_params with Ccmorph.cluster = Engine e };
            }
          in
          {
            name = "treeadd." ^ e.Layout.Engine.name;
            check = Exactly (Olden.Treeadd.expected_sum treeadd_params);
            observed = false;
            run =
              (fun () ->
                (treeadd_kernel (Probe.ctx ctx) C.Ccmorph_cluster_color)
                  .C.checksum);
          }
        in
        (profile :: List.concat_map engine_ops Layout.Engine.builtins)
        @ List.map treeadd_op Layout.Engine.builtins);
  }

(* --- observed-lint ----------------------------------------------------- *)

let observed_lint =
  {
    name = "observed-lint";
    why =
      "The two cclint phases (NA, Cl+Col) on health (levels 3, 280 steps) \
       and treeadd, plus the same health kernel under an Obs.Profile.Reuse \
       subscriber.  It drives the memsim of health-churn through the \
       observer arm, so a change to the observer path shows here and not \
       there.";
    loads = "observers (Analyze.Lint, Shadow, Hintlint, Fields, Obs.Profile)";
    bypasses = "the observer-free fast path of Machine";
    ops =
      (fun ~seed ->
        (* 280 steps give ~2.9 M accesses on every seed, well inside
           (2^21, 2^22): the Reuse profiler's Fenwick tree doubles its
           capacity at each power of two, and at 365 steps the count
           straddles 2^22, so peak memory jumped by 60 MB from one seed
           to the next. *)
        let hp = health_params ~steps:280 ~levels:3 ~seed () in
        let lint_op bench kernel placement =
          {
            name = Printf.sprintf "lint.%s.%s" bench (C.label placement);
            check = Exactly 0;
            observed = true;
            run =
              (fun () ->
                if Probe.observe () then begin
                  let ph =
                    Probe.span "harness.lint.run_phase" (fun () ->
                        Harness.Lint.run_phase ~bench placement (fun ctx ->
                            kernel (Probe.ctx ctx) placement))
                  in
                  Probe.add_events ph.Harness.Lint.ph_accesses;
                  Probe.add_diags (List.length ph.Harness.Lint.ph_diags);
                  List.length
                    (List.filter
                       (fun d -> d.Analyze.Diag.severity = Analyze.Diag.Error)
                       ph.Harness.Lint.ph_diags)
                end
                else begin
                  ignore (kernel (Probe.ctx (C.make_ctx placement)) placement);
                  0
                end);
          }
        in
        let reuse_ctx = C.make_ctx C.Base in
        let reuse =
          {
            name = "reuse.health.B";
            check = Same_in "reuse.checksum";
            observed = true;
            run =
              (fun () ->
                let ctx = Probe.ctx reuse_ctx in
                if Probe.observe () then begin
                  let r =
                    Obs.Profile.Reuse.create
                      ~block_bytes:(Machine.l2_block_bytes ctx.C.machine)
                  in
                  let sub =
                    Machine.subscribe ctx.C.machine (Obs.Profile.Reuse.on_access r)
                  in
                  let res = health_kernel hp ctx C.Base in
                  Machine.unsubscribe ctx.C.machine sub;
                  Probe.add_events (Obs.Profile.Reuse.accesses r);
                  res.C.checksum
                end
                else (health_kernel hp ctx C.Base).C.checksum);
          }
        in
        List.concat_map
          (fun placement ->
            [
              lint_op "health" (health_kernel hp) placement;
              lint_op "treeadd" treeadd_kernel placement;
            ])
          [ C.Ccmalloc_new_block; C.Ccmorph_cluster_color ]
        @ [ reuse ]);
  }

let all = [ health_churn; tree_layout; observed_lint ]
let find name = List.find_opt (fun (w : t) -> w.name = name) all
