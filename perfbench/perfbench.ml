(* The repository benchmark.

     perfbench.exe --workload <name|all> [--seed N] [--seconds S]
                   [--trace 0|1] [--spans FILE]

   Runs passes of the workload until [--seconds] of host time are
   spent, checks every operation's answer, and prints a table followed
   by one JSON line.  With [--trace 0] the JSON carries the end-to-end
   metrics; with [--trace 1] it carries the per-layer metrics of one
   traced pass, one capture-and-replay pass and, for workloads with
   observers, one pass with the observers off.

   Host time (seconds the simulator takes, the [_s] and [_per_s]
   names) and simulated time (cycles the modelled machine takes, the
   [_cycles] names) are kept apart.  The modelled machine is not
   validated against hardware, so no error figure is given. *)

module W = Workloads
module P = Probe
module Trace = Memsim.Trace
module Machine = Memsim.Machine
module Hierarchy = Memsim.Hierarchy

(* --- statistics ------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (exclusive). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then
    let x = if n = 1 then a.(0) else 0. in
    (x, x)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

let secs ns = float_of_int ns /. 1e9
let ratio a b = if b = 0. then 0. else a /. b

(* --- one pass ---------------------------------------------------------- *)

type op_result = {
  op_name : string;
  check : W.check;
  observed : bool;  (** the operation attaches observers of its own *)
  ns : int;
  answer : (int, string) result;
  sim : P.sim;
  minor_words : float;
  majors : int;
}

type pass = { setup_ns : int; results : op_result list }

(* [after] sees each result with the machine the operation ran on; the
   result itself does not keep the machine, so passes do not pile up
   simulated memory. *)
let run_pass ?(after = fun _ _ -> ()) (w : W.t) ~seed =
  Gc.full_major ();
  let t0 = P.now () in
  let ops = w.W.ops ~seed in
  let setup_ns = P.now () - t0 in
  let results =
    List.map
      (fun (op : W.op) ->
        P.cur_op := op.W.name;
        if !P.phase = P.Capture then P.capture_trace := Some (Trace.create ());
        let s = P.span_open ("op:" ^ op.W.name) in
        let g0 = Gc.quick_stat () in
        let t = P.now () in
        let answer =
          match op.W.run () with
          | x -> Ok x
          | exception e -> Error (Printexc.to_string e)
        in
        let ns = P.now () - t in
        let g1 = Gc.quick_stat () in
        P.span_close s;
        let sim, machine = P.finish_op () in
        let r =
          {
            op_name = op.W.name;
            check = op.W.check;
            observed = op.W.observed;
            ns;
            answer;
            sim;
            minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
            majors = g1.Gc.major_collections - g0.Gc.major_collections;
          }
        in
        after r machine;
        P.capture_trace := None;
        r)
      ops
  in
  { setup_ns; results }

let pass_ns p = List.fold_left (fun a r -> a + r.ns) 0 p.results
let pass_sim p = List.fold_left (fun a r -> P.sim_add a r.sim) P.sim_zero p.results

(* --- answer and count checks ------------------------------------------- *)

type verdict = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let verdict = { attempted = 0; failed = 0; problems = [] }
let problem fmt = Printf.ksprintf (fun s -> verdict.problems <- s :: verdict.problems) fmt

(* First-pass answers and counts, per operation name. *)
let ref_answers : (string, int) Hashtbl.t = Hashtbl.create 32
let ref_sims : (string, P.sim) Hashtbl.t = Hashtbl.create 32

let check_pass ~label ~counts p =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let name = r.op_name in
      verdict.attempted <- verdict.attempted + 1;
      let fail why =
        verdict.failed <- verdict.failed + 1;
        problem "%s pass: %s: %s" label name why
      in
      (match r.answer with
      | Error e -> fail ("raised " ^ e)
      | Ok x -> (
          (match Hashtbl.find_opt ref_answers name with
          | None -> Hashtbl.replace ref_answers name x
          | Some y when y <> x ->
              fail (Printf.sprintf "answer %d, first pass gave %d" x y)
          | Some _ -> ());
          match r.check with
          | W.Exactly y when x <> y ->
              fail (Printf.sprintf "answer %d, expected %d" x y)
          | W.Exactly _ -> ()
          | W.Same_in g -> (
              match Hashtbl.find_opt groups g with
              | None -> Hashtbl.replace groups g (name, x)
              | Some (n0, y) when y <> x ->
                  fail (Printf.sprintf "answer %d, %s gave %d" x n0 y)
              | Some _ -> ())));
      if counts then
        match Hashtbl.find_opt ref_sims name with
        | None -> Hashtbl.replace ref_sims name r.sim
        | Some s when s <> r.sim ->
            problem "%s pass: %s: simulated counts differ from the first pass"
              label name
        | Some _ -> ())
    p.results

(* --- peak memory -------------------------------------------------------- *)

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
            else go ()
      in
      let kb = go () in
      close_in ic;
      kb

(* --- replay split -------------------------------------------------------- *)

type replay = {
  mutable capture_ns : int;
  mutable iter_ns : int;
  mutable hier_ns : int;
  mutable notlb_ns : int;
  mutable mem_ns : int;
  mutable events : int;
}

let rp =
  { capture_ns = 0; iter_ns = 0; hier_ns = 0; notlb_ns = 0; mem_ns = 0; events = 0 }

(* Captured events per operation. *)
let trace_len : (string, int) Hashtbl.t = Hashtbl.create 32

let timed name f =
  P.span name (fun () ->
      let t = P.now () in
      f ();
      P.now () - t)

(* Replay one operation's captured trace through a fresh hierarchy of
   the machine's own configuration, the same without its TLB, and a
   fresh [Memory]: the host time each layer needs for the operation's
   accesses, outside the kernel. *)
let replay_op (r : op_result) machine =
  match (!P.capture_trace, machine) with
  | Some tr, Some m when Trace.length tr > 0 ->
      let cfg = Machine.config m in
      let sink = ref 0 in
      rp.capture_ns <- rp.capture_ns + r.ns;
      rp.events <- rp.events + Trace.length tr;
      Hashtbl.replace trace_len r.op_name (Trace.length tr);
      rp.iter_ns <-
        rp.iter_ns
        + timed "trace.iter" (fun () ->
              Trace.iter tr (fun _ a -> sink := !sink lxor a));
      let hier ?tlb () =
        let h =
          Hierarchy.create ?tlb ~hw_prefetch:cfg.Memsim.Config.hw_prefetch
            ~mshrs:cfg.Memsim.Config.mshrs ~l1:cfg.Memsim.Config.l1
            ~l2:cfg.Memsim.Config.l2 ~latencies:cfg.Memsim.Config.latencies ()
        in
        let now = ref 0 in
        fun () ->
          Trace.iter tr (fun k a ->
              now :=
                !now + Hierarchy.access h ~now:!now ~write:(k = Trace.Store) a)
      in
      rp.hier_ns <-
        rp.hier_ns + timed "hierarchy.replay" (hier ?tlb:cfg.Memsim.Config.tlb ());
      rp.notlb_ns <- rp.notlb_ns + timed "hierarchy.replay_notlb" (hier ());
      let mem = Memsim.Memory.create () in
      Trace.iter tr (fun _ a -> Memsim.Memory.store32 mem a 0);
      rp.mem_ns <-
        rp.mem_ns
        + timed "memory.replay" (fun () ->
              Trace.iter tr (fun k a ->
                  if k = Trace.Store then Memsim.Memory.store32 mem a a
                  else sink := !sink lxor Memsim.Memory.load32 mem a));
      ignore (Sys.opaque_identity !sink)
  | _ -> ()

(* --- running a workload ---------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; is_int : bool }

let metric ?(is_int = false) name unit_ value = { name; unit_; value; is_int }

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun s -> Printf.printf "  %s\n" s) rows

let per_op_table passes =
  let names = List.map (fun r -> r.op_name) (List.hd passes).results in
  List.map
    (fun name ->
      let rs =
        List.map
          (fun p -> List.find (fun r -> r.op_name = name) p.results)
          passes
      in
      let r = List.hd rs in
      let t = median (List.map (fun r -> secs r.ns) rs) in
      Printf.sprintf "%-20s %8.4f s  %12d cycles %10d acc %9d L1m %9d L2m %7d TLBm"
        name t r.sim.P.cycles r.sim.P.accesses r.sim.P.l1_misses
        r.sim.P.l2_misses r.sim.P.tlb_misses)
    names

let counts_json (w : W.t) ~seed passes =
  let p = List.hd passes in
  let ops =
    List.map
      (fun r ->
        Printf.sprintf "%S: {%s}" r.op_name
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%S: %d" k v)
                (P.sim_fields r.sim))))
      p.results
  in
  Printf.sprintf {|{"workload": %S, "seed": %d, "ops": {%s}}|} w.W.name seed
    (String.concat ", " ops)

let min_setups = 51

let run_workload (w : W.t) ~seed ~seconds ~trace =
  Printf.printf "workload %s (seed %d): %s\n  loads: %s\n  bypasses: %s\n%!"
    w.W.name seed w.W.why w.W.loads w.W.bypasses;
  (* untraced passes: the end-to-end metrics; a traced run spends half its
     time on them and the rest on its traced passes *)
  let budget = int_of_float (seconds *. if trace then 0.5e9 else 1e9) in
  let t_begin = P.now () in
  (* the high-water mark after the first pass: what one command of the
     workload needs.  On observed-lint each later pass raises it by tens
     of MB, so a mark taken after a time-bounded number of passes would
     move with host speed. *)
  let peak_kb = ref 0 in
  let rec loop acc =
    let t = P.now () in
    let p = run_pass w ~seed in
    if acc = [] then peak_kb := peak_rss_kb ();
    check_pass ~label:"untraced" ~counts:true p;
    Printf.printf "  pass %d: %.4f s [%s]\n%!" (List.length acc + 1)
      (secs (pass_ns p))
      (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" (secs r.ns)) p.results));
    let acc = p :: acc in
    let took = P.now () - t in
    if P.now () - t_begin + took <= budget then loop acc else List.rev acc
  in
  let passes = loop [] in
  let n = List.length passes in
  let walls = List.map (fun p -> secs (pass_ns p)) passes in
  let wall = median walls in
  let sim = pass_sim (List.hd passes) in
  (* set up many more times, back to back, so the set-up median rests on
     enough samples to repeat from run to run even when one set-up takes
     microseconds *)
  let rec more_setups acc k spent =
    if k <= 0 || spent > budget / 20 then acc
    else begin
      let t = P.now () in
      ignore (Sys.opaque_identity (w.W.ops ~seed));
      let dt = P.now () - t in
      more_setups (secs dt :: acc) (k - 1) (spent + dt)
    end
  in
  let setups =
    more_setups
      (List.map (fun p -> secs p.setup_ns) passes)
      (min_setups - n) 0
  in
  let aps = List.map (fun t -> ratio (float_of_int sim.P.accesses) t) walls in
  let stat name unit_ xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "%-22s %14.6g %-7s (q1 %.6g, q3 %.6g, n %d)" name (median xs)
      unit_ q1 q3 (List.length xs)
  in
  print_table
    (Printf.sprintf "end-to-end, %d untraced passes:" n)
    [
      stat "wall_s" "s" walls;
      stat "sim_accesses_per_s" "1/s" aps;
      Printf.sprintf "%-22s %14d cycles" "sim_cycles" sim.P.cycles;
      stat "setup_s" "s" setups;
    ];
  print_table "per operation (median host time, simulated counts):"
    (per_op_table passes);
  Printf.printf "counts %s\n%!" (counts_json w ~seed passes);
  let e2e () =
    let attempted = max 1 verdict.attempted in
    let fail_frac = float_of_int verdict.failed /. float_of_int attempted in
    Printf.printf "  fail_frac %.6g (%d of %d operations failed)\n" fail_frac
      verdict.failed verdict.attempted;
    [
      metric "wall_s" "s" wall;
      metric "sim_accesses_per_s" "1/s" (median aps);
      metric ~is_int:true "sim_cycles" "cycles" (float_of_int sim.P.cycles);
      metric "setup_s" "s" (median setups);
      metric "peak_rss_mb" "MB" (float_of_int !peak_kb /. 1024.);
      metric "ok_frac" "fraction" (1. -. fail_frac);
    ]
  in
  if not trace then e2e ()
  else begin
    (* traced pass: spans and layer counters *)
    P.phase := P.Traced;
    let traced = run_pass w ~seed in
    check_pass ~label:"traced" ~counts:true traced;
    (* capture pass: address traces, replayed layer by layer *)
    P.phase := P.Capture;
    let capture = run_pass ~after:replay_op w ~seed in
    check_pass ~label:"capture" ~counts:true capture;
    (* twin pass: the same operations with their own observers off *)
    let twin =
      if List.exists (fun r -> r.observed) traced.results then begin
        P.phase := P.Twin;
        Some (run_pass w ~seed)
      end
      else None
    in
    P.phase := P.Plain;
    let op_median name =
      median
        (List.map
           (fun p -> secs (List.find (fun r -> r.op_name = name) p.results).ns)
           passes)
    in
    (* observer tax: operations with observers of their own, against their
       twin; every other operation, the cost of its Trace.record capture *)
    let tax, events =
      List.fold_left
        (fun (tax, ev) (r : op_result) ->
          let name = r.op_name in
          if r.observed then
            match twin with
            | Some tp ->
                let t = List.find (fun x -> x.op_name = name) tp.results in
                (tax +. op_median name -. secs t.ns, ev)
            | None -> (tax, ev)
          else
            let cap = List.find (fun x -> x.op_name = name) capture.results in
            ( tax +. secs cap.ns -. op_median name,
              ev + Option.value ~default:0 (Hashtbl.find_opt trace_len name) ))
        (0., P.c.P.events) traced.results
    in
    let ts = pass_sim traced in
    let c = P.c in
    let hier = secs (rp.hier_ns - rp.iter_ns)
    and notlb = secs (rp.notlb_ns - rp.iter_ns)
    and mem = secs (rp.mem_ns - rp.iter_ns)
    and alloc = secs c.P.alloc_ns in
    let calls = c.P.alloc_calls + c.P.alloc_frees in
    let all_results = List.concat_map (fun p -> p.results) passes in
    let minor = List.fold_left (fun a r -> a +. r.minor_words) 0. all_results in
    let majors =
      median
        (List.map
           (fun p ->
             float_of_int (List.fold_left (fun a r -> a + r.majors) 0 p.results))
           passes)
    in
    let i name unit_ v = metric ~is_int:true name unit_ (float_of_int v) in
    let f = metric in
    print_table "layer self time in the traced run (spans):"
      (List.map
         (fun (k, v) -> Printf.sprintf "%-28s %10.4f s" k (secs v))
         (P.self_times ()));
    print_table "layout plan time by engine:"
      (Hashtbl.fold
         (fun k v acc -> Printf.sprintf "%-12s %10.4f s" k (secs v) :: acc)
         P.plan_ns_by_engine []);
    [
      i "memsim.accesses" "count" ts.P.accesses;
      i "memsim.l1_misses" "count" ts.P.l1_misses;
      i "memsim.l2_misses" "count" ts.P.l2_misses;
      i "memsim.tlb_misses" "count" ts.P.tlb_misses;
      i "memsim.writebacks" "count" ts.P.writebacks;
      i "memsim.busy_cycles" "cycles" ts.P.busy;
      i "memsim.load_stall_cycles" "cycles" ts.P.load_stall;
      i "memsim.store_stall_cycles" "cycles" ts.P.store_stall;
      f "memsim.trace_capture_s" "s" (secs rp.capture_ns);
      f "memsim.trace_iter_s" "s" (secs rp.iter_ns);
      f "memsim.hierarchy_replay_s" "s" hier;
      f "memsim.hierarchy_replay_notlb_s" "s" notlb;
      f "memsim.memory_replay_s" "s" mem;
      f "memsim.ns_per_access" "ns"
        (ratio ((hier +. mem) *. 1e9) (float_of_int rp.events));
      i "alloc.calls" "count" c.P.alloc_calls;
      i "alloc.frees" "count" c.P.alloc_frees;
      f "alloc.busy_s" "s" alloc;
      f "alloc.ns_per_call" "ns" (ratio (alloc *. 1e9) (float_of_int calls));
      f "alloc.overhead_ratio" "ratio"
        (ratio (float_of_int c.P.bytes_reserved) (float_of_int c.P.bytes_requested)
        -. if c.P.bytes_requested = 0 then 0. else 1.);
      i "ccmalloc.hinted" "count" c.P.hinted;
      f "ccmalloc.same_block_ratio" "ratio"
        (ratio (float_of_int c.P.same_block) (float_of_int c.P.hinted));
      i "ccmalloc.fallbacks" "count" c.P.fallbacks;
      i "ccmalloc.reuse_hits" "count" c.P.reuse_hits;
      i "ccmorph.morphs" "count" c.P.morphs;
      i "ccmorph.nodes" "count" c.P.morph_nodes;
      i "ccmorph.bytes_copied" "bytes" c.P.bytes_copied;
      i "ccmorph.pages_used" "count" c.P.pages_used;
      f "ccmorph.busy_s" "s" (secs c.P.morph_ns);
      f "layout.plan_s" "s" (secs c.P.plan_ns);
      i "observer.events" "count" events;
      f "observer.tax_s" "s" tax;
      f "observer.ns_per_event" "ns" (ratio (tax *. 1e9) (float_of_int events));
      i "lint.diags" "count" c.P.diags;
      f "kernel.residual_s" "s" (wall -. hier -. mem -. alloc);
      f "runtime.minor_words_per_access" "words"
        (ratio minor (float_of_int (n * sim.P.accesses)));
      f "runtime.major_collections" "count" majors;
      f "trace.overhead_ratio" "ratio" (ratio (secs (pass_ns traced)) wall);
    ]
  end

(* --- command line ------------------------------------------------------- *)

let usage =
  "perfbench.exe --workload <health-churn|tree-layout|observed-lint|all> \
   [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]"

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10.
  and trace = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of untraced passes");
      ("--trace", Arg.Set_int trace, "0|1 print per-layer metrics");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let ws =
    if !workload = "all" then W.all
    else
      match W.find !workload with
      | Some w -> [ w ]
      | None ->
          prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
          exit 2
  in
  (* the layer counters and spans are per process: trace one workload *)
  if (!trace <> 0 && !trace <> 1) || (!trace = 1 && List.length ws > 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let metrics =
    List.concat_map
      (fun (w : W.t) ->
        Hashtbl.reset ref_answers;
        Hashtbl.reset ref_sims;
        let ms =
          run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        in
        if List.length ws = 1 then ms
        else List.map (fun m -> { m with name = w.W.name ^ "." ^ m.name }) ms)
      ws
  in
  if !spans <> "" then P.write_spans !spans;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) (List.rev verdict.problems);
  print_table "metrics:"
    (List.map
       (fun m -> Printf.sprintf "%-34s %18.10g %s" m.name m.value m.unit_)
       metrics);
  let num m =
    if m.is_int then Printf.sprintf "%.0f" m.value
    else Printf.sprintf "%.17g" m.value
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (verdict.problems = [])
    (max 1 verdict.attempted) verdict.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (num m)
              m.unit_)
          metrics));
  print_newline ()
