(* Process-parallel experiment runner: fork one child per job, marshal
   each result back over a pipe, reassemble in job order.

   Forking (rather than threads/domains) gives each job a private copy
   of every piece of global simulator state — allocator site counters,
   morph sessions, RNG streams — so a job computes exactly what it would
   have computed in a fresh serial process.  Determinism requirement on
   callers: jobs must not read state mutated by an *earlier* job, i.e.
   each job seeds its own RNGs.  Every runner in this repository does
   (benchmark params carry explicit seeds), which is what makes the
   parallel output byte-identical to the serial one. *)

let available = Sys.os_type = "Unix"

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let child_main fd job =
  let outcome : (_, string) result =
    match job () with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  (* no [Closures] flag: a closure in the result raises here instead of
     crossing the pipe as a code pointer *)
  let payload =
    match Marshal.to_string outcome [] with
    | s -> s
    | exception e ->
        Marshal.to_string
          (Error ("result not marshallable: " ^ Printexc.to_string e)
            : (unit, string) result)
          []
  in
  (try write_all fd payload with _ -> ());
  (try Unix.close fd with _ -> ());
  (* _exit: never rerun the parent's at_exit hooks or flush its
     buffered output a second time from the child *)
  Unix._exit 0

let decode name raw status =
  let fail fmt =
    Printf.ksprintf (fun s -> failwith ("parallel job " ^ name ^ ": " ^ s)) fmt
  in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "exit %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "signal %d" n);
  let len = String.length raw in
  if len < Marshal.header_size then
    fail "truncated payload (%d bytes, header is %d)" len Marshal.header_size;
  let size = Marshal.total_size (Bytes.unsafe_of_string raw) 0 in
  if len < size then fail "truncated payload (%d of %d bytes)" len size;
  match (Marshal.from_string raw 0 : (_, string) result) with
  | Ok v -> v
  | Error msg -> fail "%s" msg

let map_forked jobs =
  (* Anything buffered before the fork would be flushed once per child. *)
  flush stdout;
  flush stderr;
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  let children =
    List.map
      (fun (name, job) ->
        let r, w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
            Unix.close r;
            child_main w job
        | pid ->
            Unix.close w;
            (name, pid, r))
      jobs
  in
  (* Each child writes only its own pipe, so draining the pipes in job
     order cannot deadlock: a later child blocked on a full pipe resumes
     when its turn comes.  Every child is drained and reaped before any
     result is decoded, so a failure leaves no zombie or open pipe. *)
  let collected =
    List.map
      (fun (name, pid, r) ->
        let raw = try read_all r with Unix.Unix_error _ -> "" in
        Unix.close r;
        let _, status = Unix.waitpid [] pid in
        (name, raw, status))
      children
  in
  List.map (fun (name, raw, status) -> decode name raw status) collected

let map ?(parallel = true) jobs =
  match jobs with
  | _ :: _ when parallel && available -> map_forked jobs
  | _ -> List.map (fun (_, job) -> job ()) jobs
