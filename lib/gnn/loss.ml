module Dense = Granii_tensor.Dense

let check_inputs name logits labels mask =
  let n, c = Dense.dims logits in
  if Array.length labels <> n then invalid_arg (name ^ ": labels length mismatch");
  Array.iter
    (fun l -> if l < 0 || l >= c then invalid_arg (name ^ ": label out of range"))
    labels;
  match mask with
  | Some m when Array.length m <> n -> invalid_arg (name ^ ": mask length mismatch")
  | Some m when not (Array.exists Fun.id m) -> invalid_arg (name ^ ": empty mask")
  | Some _ | None -> ()

let softmax_cross_entropy ?mask ~logits ~labels () =
  check_inputs "Loss.softmax_cross_entropy" logits labels mask;
  let n, c = Dense.dims logits in
  (* Only the masked rows' log-probabilities are read, and the row-wise log
     softmax treats each row on its own, so it runs on a copy of those rows
     alone (a mini-batch masks in its seeds, about a tenth of its nodes).
     [rows.(q)] is the logits row of masked row [q]. *)
  let rows =
    match mask with
    | None -> Array.init n Fun.id
    | Some m ->
        let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m in
        let r = Array.make count 0 and q = ref 0 in
        Array.iteri (fun i b -> if b then begin r.(!q) <- i; incr q end) m;
        r
  in
  let count = Array.length rows in
  let scale = 1. /. float_of_int count in
  let picked = Array.create_float (count * c) in
  Array.iteri (fun q i -> Array.blit logits.Dense.data (i * c) picked (q * c) c) rows;
  let log_probs = Dense.log_softmax_rows (Dense.of_flat ~rows:count ~cols:c picked) in
  let loss = ref 0. in
  let grad = Dense.zeros n c in
  for q = 0 to count - 1 do
    let i = rows.(q) in
    loss := !loss -. Dense.get log_probs q labels.(i);
    for j = 0 to c - 1 do
      let p = exp (Dense.get log_probs q j) in
      let indicator = if j = labels.(i) then 1. else 0. in
      Dense.set grad i j (scale *. (p -. indicator))
    done
  done;
  (!loss *. scale, grad)

let accuracy ?mask ~logits ~labels () =
  check_inputs "Loss.accuracy" logits labels mask;
  let n, _ = Dense.dims logits in
  let in_mask i = match mask with None -> true | Some m -> m.(i) in
  let preds = Dense.argmax_rows logits in
  let hit = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    if in_mask i then begin
      incr total;
      if preds.(i) = labels.(i) then incr hit
    end
  done;
  if !total = 0 then 0. else float_of_int !hit /. float_of_int !total
