(* Golden digests: the recorded outputs of fixed-seed runs, checked
   against the checked-in GOLDEN file so that "the bits do not change"
   is a test rather than a claim.

   Two kinds of line, one `name value` per artefact:
   - train.*: MD5 digests of the files a fixed-seed `train` run writes
     (net, current net, optimizer state, replay buffer), on one worker
     (inproc) and on two workers sharing each role's inference service
     (serve: -j 2) — the determinism contract makes the two equal;
   - batch.*: the search counters of one in-process pass over a subset
     of the batch corpus (PRO graphs and MiniC programs) with the
     tracked bench_cache/ checkpoints: game-tree nodes, backtracks,
     network leaf evaluations, spills and cycles against FAST.

   Usage: golden.exe --train TRAIN_EXE --nets DIR [--update] GOLDEN
   Without --update, exit 1 on any line that differs from GOLDEN; with
   it, rewrite GOLDEN.  From the repo root:
     dune build @golden
     dune exec test/golden.exe -- --update --train \
       _build/default/bin/train.exe --nets bench_cache GOLDEN *)

let header =
  [
    "# Golden digests: recorded outputs of fixed-seed runs (test/golden.ml).";
    "# Checkpoint digests and float-derived counters hold on x86_64 only.";
    "# A change that means to change bits re-records this file in the same";
    "# commit and names every changed line.";
  ]

let digest_file path = Digest.to_hex (Digest.file path)

(* --- fixed-seed training runs ------------------------------------------ *)

let train_args =
  [ "-i"; "1"; "-e"; "4"; "-k"; "6"; "--n-mean"; "6"; "--batch"; "8";
    "--seed"; "11" ]

let run_train ~exe ~dir ~name extra =
  let prefix = Filename.concat dir name in
  let args =
    Array.of_list
      ((exe :: train_args) @ extra
      @ [ "--checkpoint"; prefix; "-o"; prefix ^ ".ckpt" ])
  in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe args Unix.stdin null Unix.stderr in
  Unix.close null;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "golden: %s run failed" name));
  List.map
    (fun (file, suffix) ->
      (Printf.sprintf "train.%s.%s" name file, digest_file (prefix ^ suffix)))
    [ ("net", ".ckpt"); ("current", ".current.ckpt"); ("opt", ".opt.ckpt");
      ("replay", ".replay.txt") ]

let train_lines ~exe =
  let dir = Filename.temp_dir "golden" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      run_train ~exe ~dir ~name:"inproc" [ "-j"; "1" ]
      @ run_train ~exe ~dir ~name:"serve" [ "-j"; "2" ])

(* --- search counters over a batch-corpus subset ------------------------ *)

(* The batch corpus's settings (PRO: ate_k25, k = 25, increasing
   liberty, backtracking, exact reduction, 2500 backtracks; MiniC:
   cpu_k24, k = 60), on the items that fit a quick test. *)
let pros = [ 1; 2; 6 ]
let minics = [ "Bubblesort"; "IntMM"; "Oscar"; "Queens"; "Towers"; "Gcd"; "Mandel"; "Fib" ]
let machine = Ate.Machine.default

let pro_lines ate n =
  let name = Printf.sprintf "batch.pro%d" n in
  let p = Ate.Progen.pro ~machine n in
  match Ate.Program.analyze p with
  | Error e -> failwith (name ^ ": " ^ e)
  | Ok info ->
      let g = (Ate.Pbqp_build.build machine info).graph in
      let e0 = Nn.Pvnet.eval_count ate in
      let sol, (st : Core.Solver.stats) =
        Core.Solver.solve_feasible ~net:ate
          ~mcts:{ Mcts.default_config with k = 25 }
          ~order:Core.Order.Increasing_liberty ~backtracking:true
          ~exact_reduce:true ~max_backtracks:2500 g
      in
      [
        (name ^ ".nodes", string_of_int st.nodes);
        (name ^ ".backtracks", string_of_int st.backtracks);
        (name ^ ".leaf_evals", string_of_int (Nn.Pvnet.eval_count ate - e0));
        ( name ^ ".solution",
          match sol with
          | None -> "none"
          | Some s ->
              Pbqp.Solution.to_array s |> Array.to_list
              |> List.map string_of_int |> String.concat ","
              |> Digest.string |> Digest.to_hex );
      ]

let minic_lines cpu name =
  let src = List.assoc name Cir.Programs.all in
  let ir = Cir.Lower.compile src in
  let e0 = Nn.Pvnet.eval_count cpu in
  let rl =
    Cir.Driver.run (Cir.Driver.Pbqp_rl (cpu, { Mcts.default_config with k = 60 })) ir
  in
  let evals = Nn.Pvnet.eval_count cpu - e0 in
  let fast = Cir.Driver.run Cir.Driver.Fast ir in
  let key = "batch." ^ String.lowercase_ascii name in
  [
    (key ^ ".leaf_evals", string_of_int evals);
    (key ^ ".spills", string_of_int rl.spills);
    (key ^ ".cycles", string_of_int rl.outcome.cycles);
    (key ^ ".fast_cycles", string_of_int fast.outcome.cycles);
    ( key ^ ".speedup",
      Printf.sprintf "%.6f"
        (float_of_int fast.outcome.cycles /. float_of_int rl.outcome.cycles) );
  ]

let batch_lines ~nets =
  let ate = Nn.Pvnet.load (Filename.concat nets "ate_k25.ckpt")
  and cpu = Nn.Pvnet.load (Filename.concat nets "cpu_k24.ckpt") in
  List.concat_map (pro_lines ate) pros @ List.concat_map (minic_lines cpu) minics

(* --- compare / update -------------------------------------------------- *)

let read_golden path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         if l = "" || l.[0] = '#' then None
         else
           match String.index_opt l ' ' with
           | Some i ->
               Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
           | None -> failwith ("golden: malformed line: " ^ l))

let () =
  let update = ref false and train = ref "" and nets = ref "" and file = ref "" in
  Arg.parse
    [
      ("--update", Arg.Set update, " rewrite GOLDEN from this tree");
      ("--train", Arg.Set_string train, "EXE the train executable");
      ("--nets", Arg.Set_string nets, "DIR directory of the bench checkpoints");
    ]
    (fun f -> file := f)
    "golden.exe --train EXE --nets DIR [--update] GOLDEN";
  if !train = "" || !nets = "" || !file = "" then begin
    prerr_endline "golden: --train, --nets and GOLDEN are required";
    exit 2
  end;
  let lines = train_lines ~exe:!train @ batch_lines ~nets:!nets in
  if !update then begin
    Out_channel.with_open_text !file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) header;
        List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) lines);
    Printf.printf "golden: wrote %d lines to %s\n" (List.length lines) !file
  end
  else begin
    let want = read_golden !file in
    let bad = ref 0 in
    let report k w g =
      incr bad;
      Printf.printf "golden: %s: want %s, got %s\n" k w g
    in
    List.iter
      (fun (k, w) ->
        match List.assoc_opt k lines with
        | Some g when g = w -> ()
        | Some g -> report k w g
        | None -> report k w "(not produced)")
      want;
    List.iter
      (fun (k, g) -> if not (List.mem_assoc k want) then report k "(missing)" g)
      lines;
    if !bad > 0 then begin
      Printf.printf "golden: %d of %d lines differ from %s\n" !bad
        (List.length lines) !file;
      exit 1
    end;
    Printf.printf "golden: %d lines match %s\n" (List.length lines) !file
  end
