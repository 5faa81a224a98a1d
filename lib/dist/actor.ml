let run ~config ~manifest ~actor ~in_fd ~out_fd =
  let actors = manifest.Manifest.actors in
  let root = Manifest.actor_root manifest actor in
  let consumed = ref 0 in
  (* split streams are consumed strictly in episode order *)
  let next_episode_rng k =
    while !consumed < k do
      ignore (Random.State.split root : Random.State.t);
      incr consumed
    done;
    if !consumed <> k then
      invalid_arg "Dist.Actor: episode assignments regressed";
    incr consumed;
    Random.State.split root
  in
  let best = ref None and current = ref None in
  let generation = ref 0 in
  let install slot snap =
    match !slot with
    | None -> slot := Some (Nn.Pvnet.snapshot_of_string snap)
    | Some net -> Nn.Pvnet.load_snapshot net snap
  in
  let net_of slot =
    match !slot with
    | Some net -> net
    | None -> invalid_arg "Dist.Actor: assignment before first snapshot"
  in
  (* one single-worker inference service per net role, for every
     episode this actor plays *)
  let best_serve = Nn.Infer.create ~workers:1 ()
  and current_serve = Nn.Infer.create ~workers:1 () in
  let running = ref true in
  while !running do
    match Frame.read in_fd with
    | None -> running := false
    | Some payload -> (
        match Msg.to_actor_of_string payload with
        | Msg.Quit -> running := false
        | Msg.Snapshot { generation = g; best = bs; current = cs } ->
            install best bs;
            install current cs;
            generation := g
        | Msg.Assign { iteration; lo; hi } ->
            let bnet = net_of best and cnet = net_of current in
            for index = lo to hi - 1 do
              if index mod actors = actor then begin
                let rng = next_episode_rng ((index - actor) / actors) in
                let samples, failed =
                  Core.Train.self_play_episode ~best_serve ~current_serve
                    ~rng ~best:bnet ~current:cnet config
                in
                Frame.write out_fd
                  (Msg.to_learner_to_string
                     (Msg.Episode
                        {
                          iteration;
                          index;
                          actor;
                          generation = !generation;
                          failed;
                          samples;
                        }))
              end
            done)
  done
