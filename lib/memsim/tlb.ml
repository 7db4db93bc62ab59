type config = {
  entries : int;
  assoc : int;
  page_bytes : int;
  miss_penalty : int;
}

(* A read-only cache whose blocks are pages: every translation is a
   demand read, so hits and misses are the cache's read counters. *)
type t = { cfg : config; pages : Cache.t }

let default_config ~page_bytes =
  (* 64-entry fully associative dTLB; UltraSPARC handles misses with a
     software trap costing a few tens of cycles *)
  { entries = 64; assoc = 64; page_bytes; miss_penalty = 40 }

let create cfg =
  if not (Addr.is_pow2 cfg.entries) then
    invalid_arg "Tlb.create: entries must be a power of two";
  if cfg.entries mod cfg.assoc <> 0 then
    invalid_arg "Tlb.create: assoc must divide entries";
  {
    cfg;
    pages =
      Cache.create
        (Cache_config.v ~policy:Cache_config.Write_through ~name:"TLB"
           ~sets:(cfg.entries / cfg.assoc) ~assoc:cfg.assoc
           ~block_bytes:cfg.page_bytes ());
  }

let config t = t.cfg

let access t a =
  if Cache.access t.pages ~write:false a then 0 else t.cfg.miss_penalty

let misses t = (Cache.stats t.pages).Cache.read_misses
let hits t = (Cache.stats t.pages).Cache.reads - misses t

type stats = { t_hits : int; t_misses : int }

let stats t = { t_hits = hits t; t_misses = misses t }

let stats_miss_rate s =
  let n = s.t_hits + s.t_misses in
  if n = 0 then 0. else float_of_int s.t_misses /. float_of_int n

let pp_stats ppf s =
  Format.fprintf ppf "hits=%d misses=%d miss_rate=%.4f" s.t_hits s.t_misses
    (stats_miss_rate s)

let clear t = Cache.clear t.pages
let reset_stats t = Cache.reset_stats t.pages
