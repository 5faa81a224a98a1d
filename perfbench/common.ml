(* Shared pieces of the benchmark: clocks, order statistics, process
   memory, the per-workload result record, and its JSON rendering. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Order statistics by linear interpolation between closest ranks (the
   convention of Python's statistics.quantiles "inclusive" method). *)
let quantile q xs =
  match Array.length xs with
  | 0 -> 0.0
  | n ->
      let a = Array.copy xs in
      Array.sort compare a;
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* The highest percentile with at least ten samples beyond it (p99 from
   1000 samples on), never below the median. *)
let tail xs =
  let n = float_of_int (Array.length xs) in
  quantile (Float.max 0.5 (Float.min 0.99 (1.0 -. (10.0 /. n)))) xs

let geomean xs =
  match Array.length xs with
  | 0 -> 0.0
  | n -> exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int n)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* VmHWM (peak resident set) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> 0.0
  | lines ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; rest ] -> (
              match String.split_on_char ' ' (String.trim rest) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0 lines

let self_peak_rss_mb () = peak_rss_mb "self"

(* Set-up is repeated and its median reported, so that one slow start
   does not read as a regression. *)
let setups = 5

let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Working directory for sockets, traces and the last untraced result of
   each workload; relative, so it lives inside the checkout the benchmark
   runs from. *)
let work_dir = ".perfbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

(* What one workload run hands back: the check verdict, the end-to-end
   metrics as (name, value) pairs, and the wall time of its timed
   region.  Each workload's [run] also returns a thunk that measures its
   per-layer metrics; only the traced run calls it. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  timed_s : float;
}

(* One output check: counts an op as failed (never aborts the run). *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally () = { attempted = 0; failed = 0; wrong = 0 }

(* [ok = false] on a wrong output (a failed check) also clears
   [correct]; refusals and error replies are failures, not wrong answers. *)
let count t ~ok ~wrong =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  if wrong then t.wrong <- t.wrong + 1

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
