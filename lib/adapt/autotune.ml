type candidate = {
  cand_color_frac : float;
  cand_cluster : Ccsl.Ccmorph.cluster_scheme;
  cand_strategy : Ccsl.Ccmalloc.strategy;
  cand_model_miss : float;
  cand_cycles : int option;
}

type recommendation = {
  rec_color_frac : float;
  rec_cluster : Ccsl.Ccmorph.cluster_scheme;
  rec_strategy : Ccsl.Ccmalloc.strategy;
  rec_model_miss : float;
  rec_cycles : int option;
  rec_candidates : candidate list;
}

let cluster_name = Ccsl.Ccmorph.scheme_name

(* Spatial-locality factor K of each engine, for ranking schemes inside
   the Section 5 steady-state model (higher K, lower miss rate).  The
   weighted engine without a profile behaves like a random descent
   (p = 1/2), exactly the depth-first form. *)
let scheme_k ~block_elems scheme =
  match Ccsl.Ccmorph.scheme_name scheme with
  | "depth_first" -> Ccsl.Model.Ctree.k_depth_first ~block_elems
  | "weighted" -> Ccsl.Model.Ctree.k_weighted ~block_elems ~p:0.5
  | _ -> Ccsl.Model.Ctree.k ~block_elems

let default_color_fracs = [ 0.25; 0.5; 0.75 ]

let default_clusters =
  [
    Ccsl.Ccmorph.Subtree;
    Ccsl.Ccmorph.Depth_first;
    Ccsl.Ccmorph.Engine Layout.Engine.veb;
  ]

let default_strategies =
  [ Ccsl.Ccmalloc.New_block; Ccsl.Ccmalloc.Closest; Ccsl.Ccmalloc.First_fit ]

let search ?(color_fracs = default_color_fracs) ?(clusters = default_clusters)
    ?(strategies = default_strategies) ?validate ~n ~sets ~assoc ~block_elems
    () =
  if color_fracs = [] || clusters = [] || strategies = [] then
    invalid_arg "Autotune.search: empty candidate axis";
  let model_for cl cf =
    Ccsl.Model.Ctree.miss_rate_k ~n ~sets ~assoc ~block_elems ~color_frac:cf
      ~k:(scheme_k ~block_elems cl)
  in
  (* model first: rank the coloring fractions analytically, then spend
     the (much more expensive) simulated validation runs on the color
     sweep plus the cluster x strategy cross for the model's winner *)
  let lead_cluster = List.hd clusters in
  let lead_strategy = List.hd strategies in
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> compare a b)
      (List.map (fun cf -> (cf, model_for lead_cluster cf)) color_fracs)
  in
  let best_cf, _ = List.hd ranked in
  let cands =
    List.map
      (fun (cf, m) ->
        {
          cand_color_frac = cf;
          cand_cluster = lead_cluster;
          cand_strategy = lead_strategy;
          cand_model_miss = m;
          cand_cycles = None;
        })
      ranked
    @ List.concat_map
        (fun cl ->
          List.filter_map
            (fun st ->
              (* compare schemes by name: [Engine] carries closures, so
                 structural (=) on cluster_scheme can raise *)
              if
                Ccsl.Ccmorph.scheme_name cl
                = Ccsl.Ccmorph.scheme_name lead_cluster
                && st = lead_strategy
              then None
              else
                Some
                  {
                    cand_color_frac = best_cf;
                    cand_cluster = cl;
                    cand_strategy = st;
                    cand_model_miss = model_for cl best_cf;
                    cand_cycles = None;
                  })
            strategies)
        clusters
  in
  let cands =
    match validate with
    | None -> cands
    | Some run ->
        List.map
          (fun c ->
            {
              c with
              cand_cycles =
                Some
                  (run ~color_frac:c.cand_color_frac ~cluster:c.cand_cluster
                     ~strategy:c.cand_strategy);
            })
          cands
  in
  let better a b =
    match (a.cand_cycles, b.cand_cycles) with
    | Some x, Some y -> if y < x then b else a
    | Some _, None -> a
    | None, Some _ -> b
    | None, None -> if b.cand_model_miss < a.cand_model_miss then b else a
  in
  let winner = List.fold_left better (List.hd cands) (List.tl cands) in
  {
    rec_color_frac = winner.cand_color_frac;
    rec_cluster = winner.cand_cluster;
    rec_strategy = winner.cand_strategy;
    rec_model_miss = winner.cand_model_miss;
    rec_cycles = winner.cand_cycles;
    rec_candidates = cands;
  }

let candidate_to_json c =
  Obs.Json.Obj
    ([
       ("color_frac", Obs.Json.Float c.cand_color_frac);
       ("cluster", Obs.Json.String (cluster_name c.cand_cluster));
       ( "strategy",
         Obs.Json.String (Ccsl.Ccmalloc.strategy_name c.cand_strategy) );
       ("model_miss_rate", Obs.Json.Float c.cand_model_miss);
     ]
    @
    match c.cand_cycles with
    | Some cy -> [ ("measured_cycles", Obs.Json.Int cy) ]
    | None -> [])

let to_json r =
  Obs.Json.Obj
    ([
       ("color_frac", Obs.Json.Float r.rec_color_frac);
       ("cluster", Obs.Json.String (cluster_name r.rec_cluster));
       ( "strategy",
         Obs.Json.String (Ccsl.Ccmalloc.strategy_name r.rec_strategy) );
       ("model_miss_rate", Obs.Json.Float r.rec_model_miss);
     ]
    @ (match r.rec_cycles with
      | Some cy -> [ ("measured_cycles", Obs.Json.Int cy) ]
      | None -> [])
    @ [
        ( "candidates",
          Obs.Json.List (List.map candidate_to_json r.rec_candidates) );
      ])

let morph_params r =
  {
    Ccsl.Ccmorph.default_params with
    Ccsl.Ccmorph.cluster = r.rec_cluster;
    color_frac = r.rec_color_frac;
  }
