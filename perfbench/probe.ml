(* Host-time probes the benchmark wraps around its own calls into each
   layer.  Nothing here reaches inside the libraries: every number is
   taken at a public function boundary (an allocator closure, a morph
   gate, a morph observer, a machine's tracer slot).

   A run goes through up to four phases.  [Plain] passes give the
   end-to-end metrics and leave every probe inert.  The [Traced] pass
   records spans and layer counters; [Capture] records each operation's
   address trace for the replay split; [Twin] runs the operations with
   their own observers left off, the baseline for the observer tax. *)

module Machine = Memsim.Machine
module Hierarchy = Memsim.Hierarchy
module Cache = Memsim.Cache
module Trace = Memsim.Trace
module Ccmorph = Ccsl.Ccmorph
module C = Olden.Common

let now () = Int64.to_int (Monotonic_clock.now ())
let t_start = now ()

type phase = Plain | Traced | Capture | Twin

let phase = ref Plain
let traced () = !phase = Traced

(* Operations attach their own observers unless this is the twin pass. *)
let observe () = !phase <> Twin

(* Cost of one [now ()] pair, subtracted from per-call timings. *)
let clock_ns =
  let n = 10_000 in
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (now ()))
  done;
  (now () - t0) / n

(* --- simulated counts ------------------------------------------------ *)

type sim = {
  accesses : int;
  l1_misses : int;
  l2_misses : int;
  tlb_misses : int;
  writebacks : int;
  busy : int;
  load_stall : int;
  store_stall : int;
  cycles : int;
}

let sim_zero =
  {
    accesses = 0;
    l1_misses = 0;
    l2_misses = 0;
    tlb_misses = 0;
    writebacks = 0;
    busy = 0;
    load_stall = 0;
    store_stall = 0;
    cycles = 0;
  }

let sim_read m =
  let st = Hierarchy.stats (Machine.hierarchy m) in
  let s = Machine.snapshot m in
  {
    accesses = Cache.accesses st.Hierarchy.h_l1;
    l1_misses = Cache.misses st.Hierarchy.h_l1;
    l2_misses = Cache.misses st.Hierarchy.h_l2;
    tlb_misses =
      (match st.Hierarchy.h_tlb with
      | Some t -> t.Memsim.Tlb.t_misses
      | None -> 0);
    writebacks =
      st.Hierarchy.h_l1.Cache.writebacks + st.Hierarchy.h_l2.Cache.writebacks;
    busy = s.Memsim.Cost.s_busy;
    load_stall = s.Memsim.Cost.s_load_stall;
    store_stall = s.Memsim.Cost.s_store_stall;
    cycles = s.Memsim.Cost.s_total;
  }

let sim_map2 f a b =
  {
    accesses = f a.accesses b.accesses;
    l1_misses = f a.l1_misses b.l1_misses;
    l2_misses = f a.l2_misses b.l2_misses;
    tlb_misses = f a.tlb_misses b.tlb_misses;
    writebacks = f a.writebacks b.writebacks;
    busy = f a.busy b.busy;
    load_stall = f a.load_stall b.load_stall;
    store_stall = f a.store_stall b.store_stall;
    cycles = f a.cycles b.cycles;
  }

let sim_add = sim_map2 ( + )

let sim_fields s =
  [
    ("accesses", s.accesses);
    ("l1_misses", s.l1_misses);
    ("l2_misses", s.l2_misses);
    ("tlb_misses", s.tlb_misses);
    ("writebacks", s.writebacks);
    ("busy_cycles", s.busy);
    ("load_stall_cycles", s.load_stall);
    ("store_stall_cycles", s.store_stall);
    ("cycles", s.cycles);
  ]

(* --- spans ------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_phase : phase;
  sp_name : string;
  sp_op : string;
  sp_parent : int;
  sp_start : int;
  mutable sp_end : int;
}

let spans : span list ref = ref []
let open_spans : span list ref = ref []
let cur_op = ref ""
let next_span = ref 0

let span_open name =
  if !phase = Plain then None
  else begin
    let parent = match !open_spans with p :: _ -> p.sp_id | [] -> -1 in
    let s =
      {
        sp_id = !next_span;
        sp_phase = !phase;
        sp_name = name;
        sp_op = !cur_op;
        sp_parent = parent;
        sp_start = now ();
        sp_end = 0;
      }
    in
    incr next_span;
    open_spans := s :: !open_spans;
    Some s
  end

let span_close = function
  | None -> ()
  | Some s ->
      s.sp_end <- now ();
      (* close anything an exception left open above this span *)
      let rec pop = function
        | x :: rest when x != s -> pop rest
        | _ :: rest -> rest
        | [] -> []
      in
      open_spans := pop !open_spans;
      spans := s :: !spans

let span name f =
  let s = span_open name in
  Fun.protect ~finally:(fun () -> span_close s) f

let phase_name = function
  | Plain -> "plain"
  | Traced -> "traced"
  | Capture -> "capture"
  | Twin -> "twin"

let span_json s =
  Printf.sprintf
    {|{"id":%d,"phase":"%s","name":"%s","op":"%s","parent":%d,"start_ns":%d,"end_ns":%d}|}
    s.sp_id (phase_name s.sp_phase) s.sp_name s.sp_op s.sp_parent
    (s.sp_start - t_start) (s.sp_end - t_start)

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc (span_json s))
    (List.rev !spans);
  output_string oc "\n]\n";
  close_out oc

(* Self time per span name in the traced pass: duration minus the part
   its children cover. *)
let self_times () =
  let spans = List.filter (fun s -> s.sp_phase = Traced) !spans in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        let d = s.sp_end - s.sp_start in
        Hashtbl.replace child s.sp_parent
          (d + Option.value ~default:0 (Hashtbl.find_opt child s.sp_parent)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d =
        s.sp_end - s.sp_start
        - Option.value ~default:0 (Hashtbl.find_opt child s.sp_id)
      in
      Hashtbl.replace self s.sp_name
        (d + Option.value ~default:0 (Hashtbl.find_opt self s.sp_name)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

(* --- layer counters (traced pass only) -------------------------------- *)

type counters = {
  mutable alloc_calls : int;
  mutable alloc_frees : int;
  mutable alloc_ns : int;
  mutable bytes_requested : int;
  mutable bytes_reserved : int;
  mutable hinted : int;
  mutable same_block : int;
  mutable fallbacks : int;
  mutable reuse_hits : int;
  mutable morphs : int;
  mutable morph_nodes : int;
  mutable bytes_copied : int;
  mutable pages_used : int;
  mutable morph_ns : int;
  mutable plan_ns : int;
  mutable observer_ns : int;  (* time this module spends inside observers *)
  mutable events : int;
  mutable diags : int;
}

let c =
  {
    alloc_calls = 0;
    alloc_frees = 0;
    alloc_ns = 0;
    bytes_requested = 0;
    bytes_reserved = 0;
    hinted = 0;
    same_block = 0;
    fallbacks = 0;
    reuse_hits = 0;
    morphs = 0;
    morph_nodes = 0;
    bytes_copied = 0;
    pages_used = 0;
    morph_ns = 0;
    plan_ns = 0;
    observer_ns = 0;
    events = 0;
    diags = 0;
  }

let plan_ns_by_engine : (string, int) Hashtbl.t = Hashtbl.create 8

let add_events n = if traced () then c.events <- c.events + n
let add_diags n = if traced () then c.diags <- c.diags + n

(* --- per-operation registration ---------------------------------------- *)

(* The machines and contexts the current operation runs on, with the
   counts each machine held when it was registered. *)
let machines : (Machine.t * sim) list ref = ref []
let ctxs : C.ctx list ref = ref []
let capture_trace : Trace.t option ref = ref None

let use m =
  if not (List.exists (fun (m', _) -> m' == m) !machines) then begin
    machines := (m, sim_read m) :: !machines;
    match (!phase, !capture_trace) with
    | Capture, Some tr ->
        Machine.set_tracer m
          (Some
             (fun w a -> Trace.record tr (if w then Trace.Store else Trace.Load) a))
    | _ -> ()
  end

let timed_alloc (a : Alloc.Allocator.t) =
  {
    a with
    Alloc.Allocator.alloc =
      (fun ?hint ?site bytes ->
        let t = now () in
        let r = a.Alloc.Allocator.alloc ?hint ?site bytes in
        c.alloc_ns <- c.alloc_ns + (now () - t - clock_ns);
        c.alloc_calls <- c.alloc_calls + 1;
        r);
    free =
      (fun x ->
        let t = now () in
        a.Alloc.Allocator.free x;
        c.alloc_ns <- c.alloc_ns + (now () - t - clock_ns);
        c.alloc_frees <- c.alloc_frees + 1);
  }

(* Register a kernel context for the current operation; in the traced
   pass its allocator comes back wrapped in a timer. *)
let ctx (x : C.ctx) =
  use x.C.machine;
  if traced () then begin
    let x = { x with C.alloc = timed_alloc x.C.alloc } in
    ctxs := x :: !ctxs;
    x
  end
  else x

let timed_morph f =
  if not (traced ()) then f ()
  else begin
    let s = span_open "ccmorph.morph" in
    let t = now () and o = c.observer_ns in
    let r = f () in
    c.morph_ns <- c.morph_ns + (now () - t) - (c.observer_ns - o);
    span_close s;
    r
  end

(* Time the periodic morphs a kernel performs on its own schedule.  The
   gate reproduces the kernel's fixed schedule exactly (morph when the
   step count is a multiple of [interval]), so the simulation is the
   ungated one; the runner checks that the counts agree. *)
let gate_morphs (x : C.ctx) ~interval =
  if traced () && x.C.morph_params <> None then begin
    let steps = ref 0 and t = ref 0 and o = ref 0 and s = ref None in
    x.C.gate <-
      Some
        {
          C.g_should =
            (fun () ->
              incr steps;
              let go = !steps mod interval = 0 in
              if go then begin
                s := span_open "ccmorph.morph";
                t := now ();
                o := c.observer_ns
              end;
              go);
          g_note =
            (fun _ ->
              c.morph_ns <- c.morph_ns + (now () - !t) - (c.observer_ns - !o);
              span_close !s);
          g_session = None;
        }
  end

let finish_op () =
  let sim =
    List.fold_left
      (fun acc (m, before) ->
        Machine.set_tracer m None;
        sim_add acc (sim_map2 ( - ) (sim_read m) before))
      sim_zero !machines
  in
  List.iter
    (fun (x : C.ctx) ->
      let st = x.C.alloc.Alloc.Allocator.stats () in
      c.bytes_requested <- c.bytes_requested + st.Alloc.Allocator.bytes_requested;
      c.bytes_reserved <- c.bytes_reserved + st.Alloc.Allocator.bytes_reserved;
      Option.iter
        (fun cc ->
          let k = Ccsl.Ccmalloc.counters cc in
          c.hinted <- c.hinted + k.Ccsl.Ccmalloc.c_hinted;
          c.same_block <- c.same_block + k.Ccsl.Ccmalloc.c_hinted_same_block;
          c.fallbacks <- c.fallbacks + k.Ccsl.Ccmalloc.c_strategy_fallbacks;
          c.reuse_hits <- c.reuse_hits + k.Ccsl.Ccmalloc.c_reuse_hits)
        x.C.cc)
    !ctxs;
  let first = match List.rev !machines with (m, _) :: _ -> Some m | [] -> None in
  machines := [];
  ctxs := [];
  (sim, first)

(* --- morph observer: counts, and a direct timed call of the engine ---- *)

(* Rebuild the abstract tree of a finished morph from its new copy
   (untimed loads, invisible to the simulation), then time the layout
   engine's [plan] on it.  The profile weights are keyed by pre-morph
   addresses the observation does not carry, so the replanned tree has
   uniform weights. *)
let replan (o : Ccmorph.observation) =
  let m = o.Ccmorph.obs_machine and d = o.Ccmorph.obs_desc in
  let n = o.Ccmorph.obs_result.Ccmorph.nodes in
  let ids = Hashtbl.create n and q = Queue.create () in
  let id_of a =
    match Hashtbl.find_opt ids a with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        if i >= n then failwith "replan: more nodes than the morph reported";
        Hashtbl.add ids a i;
        Queue.add (a, i) q;
        i
  in
  let roots =
    Array.to_list o.Ccmorph.obs_result.Ccmorph.new_roots
    |> List.filter (fun a -> not (Memsim.Addr.is_null a))
    |> List.map id_of
  in
  let kids = Array.make n [] in
  while not (Queue.is_empty q) do
    let a, i = Queue.pop q in
    kids.(i) <-
      Array.fold_right
        (fun off acc ->
          let w = Machine.uload32 m (a + off) in
          let follow =
            (not (Memsim.Addr.is_null w))
            && match d.Ccmorph.kid_filter with Some f -> f w | None -> true
          in
          if follow then id_of w :: acc else acc)
        d.Ccmorph.kid_offsets []
  done;
  let tree = Layout.Tree.v ~n ~kids:(fun v -> kids.(v)) ~roots () in
  let engine = Ccmorph.engine_of_scheme o.Ccmorph.obs_params.Ccmorph.cluster in
  let k = max 1 (Machine.l2_block_bytes m / d.Ccmorph.elem_bytes) in
  let s = span_open "layout.plan" in
  let t = now () in
  ignore (Sys.opaque_identity (engine.Layout.Engine.plan tree ~k));
  let dt = now () - t in
  span_close s;
  c.plan_ns <- c.plan_ns + dt;
  let name = engine.Layout.Engine.name in
  Hashtbl.replace plan_ns_by_engine name
    (dt + Option.value ~default:0 (Hashtbl.find_opt plan_ns_by_engine name))

let () =
  ignore
    (Ccmorph.add_observer (fun o ->
         if traced () then begin
           let t = now () in
           let r = o.Ccmorph.obs_result in
           c.morphs <- c.morphs + 1;
           c.morph_nodes <- c.morph_nodes + r.Ccmorph.nodes;
           c.bytes_copied <- c.bytes_copied + r.Ccmorph.bytes_copied;
           c.pages_used <- c.pages_used + r.Ccmorph.pages_used;
           (try replan o with Failure _ | Invalid_argument _ -> ());
           c.observer_ns <- c.observer_ns + (now () - t)
         end))
