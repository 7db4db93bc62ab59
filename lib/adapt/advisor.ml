module A = Memsim.Addr
module Machine = Memsim.Machine
module H = Analyze.Hintlint

type config = {
  window : int;
  min_allocs : int;
  hot_share : float;
  min_affinity_tries : int;
  low_affinity : float;
  min_placement_success : float;
  probe_interval : int;
}

(* Online thresholds are deliberately lower than the post-hoc lint's: a
   wrong early hint costs one misplaced object, while waiting for
   lint-grade confidence forfeits placement for most of the run. *)
let default_config =
  {
    window = 32;
    min_allocs = 16;
    hot_share = 0.05;
    min_affinity_tries = 64;
    low_affinity = 0.05;
    min_placement_success = 0.5;
    probe_interval = 16;
  }

(* A live heap object the advisor knows about: where it is, who
   allocated it, and which block its (final) hint named. *)
type entry = { e_base : A.t; e_bytes : int; e_site : string; e_hint_block : int }

(* Placement-outcome evidence for one site's synthesized hints. *)
type synth_state = {
  mutable sy_tries : int;
  mutable sy_ok : int;  (** landed on the hint's page *)
  mutable sy_since_probe : int;
}

type stats = {
  hints_kept : int;
  hints_supplied : int;
  hints_overridden : int;
  sites_adapted : int;
  sites_backed_off : int;
}

type t = {
  m : Machine.t;
  config : config;
  inner : Alloc.Allocator.t;
  lint : H.t;
  block_bytes : int;
  page_bytes : int;
  mutable cc : Ccsl.Ccmalloc.t option;
  (* registry of live inner-allocator objects, for trace attribution *)
  by_block : (int, entry list ref) Hashtbl.t;
  by_base : (A.t, entry) Hashtbl.t;
  (* per site: base address of the most recently *accessed* live object —
     the concrete partner a synthesized hint points at *)
  last_addr : (string, A.t) Hashtbl.t;
  adapted_sites : (string, unit) Hashtbl.t;
  synth : (string, synth_state) Hashtbl.t;
  (* the site/hint of the in-flight synthesized hint, scored against the
     address the allocator actually returns *)
  mutable pending : (string * A.t) option;
  mutable kept : int;
  mutable supplied : int;
  mutable overridden : int;
  mutable sub : Machine.subscription option;
}

let create ?(config = default_config) m inner =
  {
    m;
    config;
    inner;
    lint = H.create ~window:config.window ();
    block_bytes = Machine.l2_block_bytes m;
    page_bytes = Machine.page_bytes m;
    cc = None;
    by_block = Hashtbl.create 1024;
    by_base = Hashtbl.create 1024;
    last_addr = Hashtbl.create 16;
    adapted_sites = Hashtbl.create 16;
    synth = Hashtbl.create 16;
    pending = None;
    kept = 0;
    supplied = 0;
    overridden = 0;
    sub = None;
  }

let set_ccmalloc t cc = t.cc <- Some cc
let hintlint t = t.lint

let blocks_of t base bytes =
  let first = A.block_index base ~block_bytes:t.block_bytes in
  let last = A.block_index (base + bytes - 1) ~block_bytes:t.block_bytes in
  (first, last)

let register t base bytes site hint_block =
  let e = { e_base = base; e_bytes = bytes; e_site = site; e_hint_block = hint_block } in
  Hashtbl.replace t.by_base base e;
  let first, last = blocks_of t base bytes in
  for b = first to last do
    match Hashtbl.find_opt t.by_block b with
    | Some l -> l := e :: !l
    | None -> Hashtbl.replace t.by_block b (ref [ e ])
  done

let unregister t base =
  match Hashtbl.find_opt t.by_base base with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.by_base base;
      let first, last = blocks_of t base e.e_bytes in
      for b = first to last do
        match Hashtbl.find_opt t.by_block b with
        | Some l -> (
            l := List.filter (fun x -> x.e_base <> base) !l;
            match !l with [] -> Hashtbl.remove t.by_block b | _ -> ())
        | None -> ()
      done

let on_trace t _write addr =
  let block = A.block_index addr ~block_bytes:t.block_bytes in
  let owner =
    match Hashtbl.find_opt t.by_block block with
    | None -> None
    | Some l ->
        List.find_opt
          (fun e -> e.e_base <= addr && addr < e.e_base + e.e_bytes)
          !l
  in
  match owner with
  | Some e ->
      H.on_access t.lint ~block ~site:(Some e.e_site) ~hint_block:e.e_hint_block;
      Hashtbl.replace t.last_addr e.e_site e.e_base
  | None -> H.push_unattributed t.lint ~block

(* The address a synthesized hint should name: the last-accessed live
   object of the measured best co-access partner site, falling back to
   this site's own last-accessed object (self-affinity — list tails and
   tree parents are same-site partners, which the cross-site co-access
   matrix deliberately excludes). *)
let partner_addr t site (lv : H.live) =
  let live_base s =
    match Hashtbl.find_opt t.last_addr s with
    | Some a when Hashtbl.mem t.by_base a -> (
        match t.cc with
        | Some cc when not (Ccsl.Ccmalloc.manages cc a) -> None
        | _ -> Some a)
    | _ -> None
  in
  match live_base site with
  | Some a -> Some a
  | None -> (
      match lv.H.l_best_partner with
      | Some (p, n) when n > 0 -> live_base p
      | _ -> None)

let mark_adapted t site = Hashtbl.replace t.adapted_sites site ()

let synth_state t site =
  match Hashtbl.find_opt t.synth site with
  | Some s -> s
  | None ->
      let s = { sy_tries = 0; sy_ok = 0; sy_since_probe = 0 } in
      Hashtbl.replace t.synth site s;
      s

let backed_off t (s : synth_state) =
  s.sy_tries >= t.config.min_allocs
  && float_of_int s.sy_ok
     < t.config.min_placement_success *. float_of_int s.sy_tries

(* Placement-outcome back-off.  A synthesized hint only helps when the
   allocator can actually honor it; when the named block and page are
   full, the allocation falls into the shared overflow path instead and
   objects from unrelated structures end up interleaved — worse than no
   hint at all.  So each site's synthesized hints are scored against the
   address the allocator really returned, and a site whose hints mostly
   fail placement stops supplying — except for an occasional probe, so
   the site can recover once the heap's shape changes (e.g. after a
   morph recycles slots). *)
let supply_allowed t site =
  let s = synth_state t site in
  if not (backed_off t s) then true
  else begin
    s.sy_since_probe <- s.sy_since_probe + 1;
    if s.sy_since_probe >= t.config.probe_interval then begin
      s.sy_since_probe <- 0;
      true
    end
    else false
  end

let note_outcome t site hint addr =
  let s = synth_state t site in
  s.sy_tries <- s.sy_tries + 1;
  if
    A.page_index addr ~page_bytes:t.page_bytes
    = A.page_index hint ~page_bytes:t.page_bytes
  then s.sy_ok <- s.sy_ok + 1;
  (* sliding evidence: halve periodically so old outcomes age out *)
  if s.sy_tries >= 8 * t.config.min_allocs then begin
    s.sy_tries <- s.sy_tries / 2;
    s.sy_ok <- s.sy_ok / 2
  end

(* A synthesized hint for [site], if the back-off allows one and a live
   managed partner exists.  Records the in-flight (site, hint) pair so
   the alloc wrapper can score placement once the real address is
   known. *)
let synthesize t site lv =
  if not (supply_allowed t site) then None
  else
    match partner_addr t site lv with
    | Some a ->
        t.pending <- Some (site, a);
        mark_adapted t site;
        Some a
    | None -> None

let decide t site hint =
  let cfg = t.config in
  let null_hint = match hint with None -> true | Some h -> A.is_null h in
  let unmanaged =
    (not null_hint)
    &&
    match (t.cc, hint) with
    | Some cc, Some h -> not (Ccsl.Ccmalloc.manages cc h)
    | _ -> false
  in
  match H.live t.lint ~site with
  | None -> hint
  | Some lv ->
      let total = H.attributed_accesses t.lint in
      let share =
        if total = 0 then 0.
        else float_of_int lv.H.l_accesses /. float_of_int total
      in
      if null_hint then
        if lv.H.l_allocs >= cfg.min_allocs && share >= cfg.hot_share then (
          match synthesize t site lv with
          | Some a ->
              t.supplied <- t.supplied + 1;
              Some a
          | None -> hint)
        else hint
      else if unmanaged then (
        (* the hint points at memory the allocator cannot place next to
           (typically a morphed-away copy in an arena); any live managed
           partner beats a hint that degrades to none *)
        match synthesize t site lv with
        | Some a ->
            t.overridden <- t.overridden + 1;
            Some a
        | None ->
            t.kept <- t.kept + 1;
            hint)
      else if
        lv.H.l_affinity_tries >= cfg.min_affinity_tries
        && lv.H.l_affinity < cfg.low_affinity
      then (
        match synthesize t site lv with
        | Some a when (match hint with Some h -> a <> h | None -> true) ->
            t.overridden <- t.overridden + 1;
            Some a
        | _ ->
            t.kept <- t.kept + 1;
            hint)
      else (
        t.kept <- t.kept + 1;
        hint)

let allocator t =
  let inner = t.inner in
  {
    inner with
    Alloc.Allocator.name = inner.Alloc.Allocator.name ^ "+adapt";
    alloc =
      (fun ?hint ?site bytes ->
        t.pending <- None;
        let hint = match site with None -> hint | Some s -> decide t s hint in
        let addr = inner.Alloc.Allocator.alloc ?hint ?site bytes in
        (match t.pending with
        | Some (s, h) ->
            note_outcome t s h addr;
            t.pending <- None
        | None -> ());
        let hinted = match hint with Some h -> not (A.is_null h) | None -> false in
        let hint_managed =
          hinted
          &&
          match (t.cc, hint) with
          | Some cc, Some h -> Ccsl.Ccmalloc.manages cc h
          | None, _ -> true
          | _, None -> false
        in
        H.note_alloc t.lint ?site ~hinted ~hint_managed ();
        (match site with
        | Some s ->
            let hint_block =
              match hint with
              | Some h when not (A.is_null h) ->
                  A.block_index h ~block_bytes:t.block_bytes
              | _ -> -1
            in
            register t addr bytes s hint_block
        | None -> ());
        addr);
    free =
      (fun addr ->
        unregister t addr;
        inner.Alloc.Allocator.free addr);
  }

let attach t =
  if t.sub = None then
    t.sub <- Some (Machine.subscribe t.m (fun w a -> on_trace t w a))

let detach t =
  match t.sub with
  | Some s ->
      Machine.unsubscribe t.m s;
      t.sub <- None
  | None -> ()

let stats (t : t) =
  {
    hints_kept = t.kept;
    hints_supplied = t.supplied;
    hints_overridden = t.overridden;
    sites_adapted = Hashtbl.length t.adapted_sites;
    sites_backed_off =
      Hashtbl.fold
        (fun _ s n -> if backed_off t s then n + 1 else n)
        t.synth 0;
  }

let stats_to_json (s : stats) =
  Obs.Json.Obj
    [
      ("hints_kept", Obs.Json.Int s.hints_kept);
      ("hints_supplied", Obs.Json.Int s.hints_supplied);
      ("hints_overridden", Obs.Json.Int s.hints_overridden);
      ("sites_adapted", Obs.Json.Int s.sites_adapted);
      ("sites_backed_off", Obs.Json.Int s.sites_backed_off);
    ]
