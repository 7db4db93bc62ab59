module C = Olden.Common
module Machine = Memsim.Machine
module Config = Memsim.Config
module Ccmorph = Ccsl.Ccmorph
module Ccmalloc = Ccsl.Ccmalloc
module J = Obs.Json

(* The adaptive arm measures whole runs: its whole point is paying
   reorganization costs only when the policy approves them, so morphs
   must land inside the measured region for every arm alike. *)
type arm = {
  arm_label : string;
  arm_result : C.result;
  arm_advisor : Adapt.Advisor.stats option;
  arm_policy : Adapt.Policy.stats option;
}

type report = {
  bench : string;
  arms : arm list;  (** base, static ccmorph, adaptive *)
  recommendation : J.t option;
      (** {!Adapt.Autotune.to_json} of the adaptive arm's autotuned
          parameters: kept as JSON because the recommended engine holds
          closures, which cannot cross the parallel runner's pipe *)
}

(* ------------------------------------------------------------------ *)
(* The adaptive context: advisor-wrapped ccmalloc + policy-gated morph  *)
(* ------------------------------------------------------------------ *)

type adaptive_parts = {
  ctx : C.ctx;
  advisor : Adapt.Advisor.t;
  policy : Adapt.Policy.t;
}

let adaptive_ctx ?policy_config ~morph_params () =
  let base = C.make_ctx C.Ccmalloc_new_block in
  let advisor = Adapt.Advisor.create base.C.machine base.C.alloc in
  (match base.C.cc with
  | Some cc -> Adapt.Advisor.set_ccmalloc advisor cc
  | None -> ());
  let policy = Adapt.Policy.create ?config:policy_config base.C.machine in
  Adapt.Advisor.attach advisor;
  Adapt.Policy.attach policy;
  let ctx =
    {
      base with
      C.alloc = Adapt.Advisor.allocator advisor;
      morph_params = Some morph_params;
    }
  in
  ctx.C.gate <-
    Some
      {
        C.g_should = Adapt.Policy.gate policy;
        g_note = Adapt.Policy.note_morph policy;
        g_session = Some (Ccmorph.session ());
      };
  { ctx; advisor; policy }

(* ------------------------------------------------------------------ *)
(* Parameter autotuning, validated by reduced-scale runs               *)
(* ------------------------------------------------------------------ *)

let placement_of_strategy = function
  | Ccmalloc.New_block -> C.Ccmalloc_new_block
  | Ccmalloc.Closest -> C.Ccmalloc_closest
  | Ccmalloc.First_fit -> C.Ccmalloc_first_fit

let tiny_ctx strategy morph_params =
  {
    (C.make_ctx (placement_of_strategy strategy)) with
    C.morph_params = Some morph_params;
  }

(* Short simulated validation runs: the same kernel at a scale where one
   candidate costs milliseconds.  Only treeadd and health have churn or
   passes for placement to matter at tiny scale; the other benchmarks
   get a model-only recommendation. *)
let validator bench =
  match bench with
  | "treeadd" ->
      Some
        (fun ~color_frac ~cluster ~strategy ->
          let mp = { Ccmorph.default_params with Ccmorph.cluster; color_frac } in
          let ctx = tiny_ctx strategy mp in
          let r =
            Olden.Treeadd.run
              ~params:{ Olden.Treeadd.levels = 10; passes = 2 }
              ~measure_whole:true ~ctx C.Ccmalloc_new_block
          in
          r.C.snapshot.Memsim.Cost.s_total)
  | "health" ->
      Some
        (fun ~color_frac ~cluster ~strategy ->
          let mp = { Ccmorph.default_params with Ccmorph.cluster; color_frac } in
          let ctx = tiny_ctx strategy mp in
          let r =
            Olden.Health.run
              ~params:
                {
                  Olden.Health.levels = 1;
                  steps = 60;
                  morph_interval = 20;
                  seed = 23;
                }
              ~measure_whole:true ~ctx C.Ccmalloc_new_block
          in
          r.C.snapshot.Memsim.Cost.s_total)
  | _ -> None

let model_inputs bench (ta : Olden.Treeadd.params) (h : Olden.Health.params) =
  let cfg = Config.rsim_table1 () in
  let l2 = cfg.Config.l2 in
  let sets = l2.Memsim.Cache_config.sets in
  let assoc = l2.Memsim.Cache_config.assoc in
  let block = l2.Memsim.Cache_config.block_bytes in
  match bench with
  | "treeadd" -> (Olden.Treeadd.nodes_of ta, sets, assoc, block / 16)
  | "health" ->
      (* steady-state population is workload-dependent; a village holds a
         few dozen 12-byte cells and patients *)
      (Olden.Health.villages_of h * 32, sets, assoc, block / 12)
  | "mst" -> (1 lsl 10, sets, assoc, block / 16)
  | _ -> (1 lsl 12, sets, assoc, block / 16)

let recommend bench ta h =
  let n, sets, assoc, block_elems = model_inputs bench ta h in
  Adapt.Autotune.search ?validate:(validator bench) ~n ~sets ~assoc
    ~block_elems ()

(* ------------------------------------------------------------------ *)
(* The three arms, as independent jobs for the (parallel) runner       *)
(* ------------------------------------------------------------------ *)

let arm_jobs ?seed bench =
  let _, h, _, _ = Experiments.olden_params ?seed Experiments.Quick in
  (* adaptivity needs repeated traversals to react between: the policy
     can only observe a bad layout by paying for one traversal of it, so
     the morph it triggers must have passes left to amortize over *)
  let ta = { Olden.Treeadd.levels = 14; passes = 8 } in
  let kernel : Experiments.olden_run option =
    if bench = "treeadd" then
      Some
        (fun ?measure_whole ?ctx p ->
          Olden.Treeadd.run ~params:ta ?measure_whole ?ctx p)
    else List.assoc_opt bench (Experiments.olden ?seed Experiments.Quick)
  in
  match kernel with
  | None -> None
  | Some kernel ->
      let run ?ctx p = kernel ~measure_whole:true ?ctx p in
      let plain label p () =
        ( {
            arm_label = label;
            arm_result = run p;
            arm_advisor = None;
            arm_policy = None;
          },
          None )
      in
      let adaptive () =
        let rec_params = recommend bench ta h in
        let morph_params = Adapt.Autotune.morph_params rec_params in
        let policy_config =
          match bench with
          | "treeadd" ->
              (* one traversal is one epoch's worth of evidence; any
                 hesitation costs a whole slow pass *)
              Some
                {
                  Adapt.Policy.default_config with
                  Adapt.Policy.hysteresis = 1;
                  cooldown_epochs = 0;
                }
          | _ -> None
        in
        let parts = adaptive_ctx ?policy_config ~morph_params () in
        (match bench with
        | "treeadd" ->
            Adapt.Policy.set_model_target
              ~scheme:morph_params.Ccmorph.cluster parts.policy
              ~n:(Olden.Treeadd.nodes_of ta)
              ~block_elems:8 ~color_frac:morph_params.Ccmorph.color_frac
        | "health" ->
            (* the reuse histogram works at word-access granularity, a few
               accesses per 12-byte cell; the floor is an absolute "this
               layout is fine" rate rather than the tree model's m_s *)
            Adapt.Policy.set_target_rate parts.policy 0.05
        | _ -> ());
        let r = run ~ctx:parts.ctx C.Ccmalloc_new_block in
        Adapt.Advisor.detach parts.advisor;
        Adapt.Policy.detach parts.policy;
        ( {
            arm_label = "adaptive";
            arm_result = r;
            arm_advisor = Some (Adapt.Advisor.stats parts.advisor);
            arm_policy = Some (Adapt.Policy.stats parts.policy);
          },
          Some (Adapt.Autotune.to_json rec_params) )
      in
      Some
        [
          ("base", plain "base" C.Base);
          ("static", plain "static" C.Ccmorph_cluster_color);
          ("adaptive", adaptive);
        ]

let run ?seed ?(adapt = true) ?(parallel = false) bench =
  Option.map
    (fun jobs ->
      (* without --adapt: just the static comparison pair (the autotuner
         and adaptive arm never run) *)
      let jobs =
        if adapt then jobs
        else List.filter (fun (name, _) -> name <> "adaptive") jobs
      in
      let results = Parallel.map ~parallel jobs in
      {
        bench;
        arms = List.map fst results;
        recommendation = List.find_map snd results;
      })
    (arm_jobs ?seed bench)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp ppf r =
  let base =
    (List.find (fun a -> a.arm_label = "base") r.arms).arm_result
  in
  Format.fprintf ppf "%s: adaptive placement vs. static arms@." r.bench;
  List.iter
    (fun a ->
      let res = a.arm_result in
      Format.fprintf ppf
        "  %-9s %12d cycles  norm %5.2f  l2/ref %6.4f  checksum %d@."
        a.arm_label res.C.snapshot.Memsim.Cost.s_total
        (C.normalized res ~base)
        res.C.l2_misses_per_ref res.C.checksum;
      (match a.arm_advisor with
      | Some s ->
          Format.fprintf ppf
            "            hints: %d kept, %d supplied, %d overridden (%d \
             sites adapted, %d backed off)@."
            s.Adapt.Advisor.hints_kept s.Adapt.Advisor.hints_supplied
            s.Adapt.Advisor.hints_overridden s.Adapt.Advisor.sites_adapted
            s.Adapt.Advisor.sites_backed_off
      | None -> ());
      match a.arm_policy with
      | Some s ->
          Format.fprintf ppf
            "            policy: %d epochs, %d morphs (last epoch miss rate \
             %.4f)@."
            s.Adapt.Policy.epochs s.Adapt.Policy.morphs
            s.Adapt.Policy.last_epoch_miss_rate
      | None -> ())
    r.arms;
  match r.recommendation with
  | Some rc ->
      let field name to_ = Option.get (Option.bind (J.member name rc) to_) in
      Format.fprintf ppf
        "  recommended: color_frac %.2f, %s clustering, %s strategy@."
        (field "color_frac" J.to_float)
        (field "cluster" J.to_str) (field "strategy" J.to_str)
  | None -> ()

let arm_to_json base a =
  let res = a.arm_result in
  J.Obj
    ([
       ("arm", J.String a.arm_label);
       ("normalized", J.Float (C.normalized res ~base));
       ("result", Report.olden_result res);
     ]
    @ (match a.arm_advisor with
      | Some s -> [ ("advisor", Adapt.Advisor.stats_to_json s) ]
      | None -> [])
    @
    match a.arm_policy with
    | Some s -> [ ("policy", Adapt.Policy.stats_to_json s) ]
    | None -> [])

let to_json r =
  let base =
    (List.find (fun a -> a.arm_label = "base") r.arms).arm_result
  in
  J.Obj
    [
      ("bench", J.String r.bench);
      ("arms", J.List (List.map (arm_to_json base) r.arms));
    ]

let recommendation_json r = r.recommendation
