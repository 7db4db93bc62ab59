module Machine = Memsim.Machine
module Reuse = Obs.Profile.Reuse

type config = {
  epoch_accesses : int;
  capacity_frac : float;
  margin : float;
  hysteresis : int;
  cooldown_epochs : int;
  copy_cost_per_byte : float;
  min_benefit_ratio : float;
}

let default_config =
  {
    epoch_accesses = 20_000;
    capacity_frac = 1.0;
    margin = 0.25;
    hysteresis = 2;
    cooldown_epochs = 1;
    copy_cost_per_byte = 2.0;
    min_benefit_ratio = 1.0;
  }

type t = {
  m : Machine.t;
  cfg : config;
  reuse : Reuse.t;
  blocks : int;  (* LRU capacity the epoch miss rates are evaluated at *)
  penalty : int;  (* cycles an L2 miss adds: the stall a morph removes *)
  mutable mark : Reuse.epoch;
  mutable target : float option;
  mutable best : float;  (* best epoch rate since the last morph *)
  mutable above : int;  (* consecutive epochs over threshold *)
  mutable cooldown : int;
  mutable last_copied : int option;  (* bytes_copied of the last morph *)
  mutable last_rate : float;
  mutable epochs : int;
  mutable triggers : int;
  mutable morphs : int;
  mutable sub : Machine.subscription option;
}

let create ?(config = default_config) m =
  if config.epoch_accesses <= 0 then
    invalid_arg "Policy.create: epoch_accesses <= 0";
  let block_bytes = Machine.l2_block_bytes m in
  let l2 = (Machine.config m).Memsim.Config.l2 in
  let cap =
    l2.Memsim.Cache_config.sets * l2.Memsim.Cache_config.assoc
  in
  let blocks =
    max 1 (int_of_float (float_of_int cap *. config.capacity_frac))
  in
  let reuse = Reuse.create ~block_bytes in
  {
    m;
    cfg = config;
    reuse;
    blocks;
    penalty =
      (Machine.config m).Memsim.Config.latencies.Memsim.Hierarchy.l2_miss;
    mark = Reuse.epoch_start reuse ~blocks;
    target = None;
    best = infinity;
    above = 0;
    cooldown = 0;
    last_copied = None;
    last_rate = 0.;
    epochs = 0;
    triggers = 0;
    morphs = 0;
    sub = None;
  }

let attach t =
  if t.sub = None then
    t.sub <- Some (Machine.subscribe t.m (Reuse.on_access t.reuse))

let detach t =
  match t.sub with
  | Some s ->
      Machine.unsubscribe t.m s;
      t.sub <- None
  | None -> ()

let set_target_rate t r = t.target <- Some r

let set_model_target ?(scheme = Ccsl.Ccmorph.Subtree) t ~n ~block_elems
    ~color_frac =
  let l2 = (Machine.config t.m).Memsim.Config.l2 in
  let ms =
    Ccsl.Model.Ctree.miss_rate_k ~n ~sets:l2.Memsim.Cache_config.sets
      ~assoc:l2.Memsim.Cache_config.assoc ~block_elems ~color_frac
      ~k:(Autotune.scheme_k ~block_elems scheme)
  in
  t.target <- Some ms

let target t = t.target
let last_epoch_miss_rate t = t.last_rate

(* Is paying for a copy worth it?  The first morph has no measured cost
   yet and is always approved; after that, the expected stall savings of
   one epoch at the excess rate must cover the copy. *)
let benefit_ok t rate floor =
  match t.last_copied with
  | None -> true
  | Some bytes ->
      let saved =
        (rate -. floor) *. float_of_int t.cfg.epoch_accesses
        *. float_of_int t.penalty
      in
      let cost = float_of_int bytes *. t.cfg.copy_cost_per_byte in
      saved >= cost *. t.cfg.min_benefit_ratio

let should_morph t =
  if Reuse.epoch_accesses t.reuse ~since:t.mark < t.cfg.epoch_accesses then
    false
  else begin
    let rate = Reuse.epoch_miss_rate t.reuse ~since:t.mark in
    t.mark <- Reuse.epoch_start t.reuse ~blocks:t.blocks;
    t.epochs <- t.epochs + 1;
    t.last_rate <- rate;
    if t.cooldown > 0 then begin
      t.cooldown <- t.cooldown - 1;
      if rate < t.best then t.best <- rate;
      false
    end
    else begin
      (* two independent reasons to reorganize: the layout underperforms
         what the model says is achievable, or it has degraded relative
         to its own best epoch since the last morph *)
      let over_model =
        match t.target with
        | Some ms -> rate > ms *. (1. +. t.cfg.margin)
        | None -> false
      in
      let degraded =
        t.best < infinity && rate > t.best *. (1. +. t.cfg.margin)
      in
      if rate < t.best then t.best <- rate;
      if over_model || degraded then begin
        t.above <- t.above + 1;
        let floor =
          match t.target with Some ms -> ms | None -> min t.best rate
        in
        if t.above >= t.cfg.hysteresis && benefit_ok t rate floor then begin
          t.above <- 0;
          t.triggers <- t.triggers + 1;
          true
        end
        else false
      end
      else begin
        t.above <- 0;
        false
      end
    end
  end

let gate t () = should_morph t

let note_morph t (r : Ccsl.Ccmorph.result) =
  t.last_copied <- Some r.Ccsl.Ccmorph.bytes_copied;
  t.cooldown <- t.cfg.cooldown_epochs;
  t.best <- infinity;
  t.above <- 0;
  t.morphs <- t.morphs + 1;
  t.mark <- Reuse.epoch_start t.reuse ~blocks:t.blocks

type stats = {
  epochs : int;
  triggers : int;
  morphs : int;
  last_epoch_miss_rate : float;
  target_miss_rate : float option;
}

let stats (t : t) =
  {
    epochs = t.epochs;
    triggers = t.triggers;
    morphs = t.morphs;
    last_epoch_miss_rate = t.last_rate;
    target_miss_rate = t.target;
  }

let stats_to_json (s : stats) =
  Obs.Json.Obj
    ([
       ("epochs", Obs.Json.Int s.epochs);
       ("triggers", Obs.Json.Int s.triggers);
       ("morphs", Obs.Json.Int s.morphs);
       ("last_epoch_miss_rate", Obs.Json.Float s.last_epoch_miss_rate);
     ]
    @
    match s.target_miss_rate with
    | Some ms -> [ ("target_miss_rate", Obs.Json.Float ms) ]
    | None -> [])
