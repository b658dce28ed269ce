(* Keys live in parallel int arrays and values in a separate slot array:
   the heap orders [(time, seq, slot)] triples, so a sift level moves
   three ints and writes no pointer (no [caml_modify]), and a push or pop
   touches the value array once.  [slots] is a permutation of the slot
   indices: positions [0, size) are the heap, positions [size, capacity)
   the free slots, so a push takes the slot at [size] and a pop returns
   its slot there. *)
type 'a t = {
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable size : int;
}

let dummy () : 'a = Obj.magic 0

let create () =
  {
    times = Array.make 16 0;
    seqs = Array.make 16 0;
    slots = Array.init 16 Fun.id;
    values = Array.make 16 (dummy ());
    size = 0;
  }

let is_empty t = t.size = 0
let length t = t.size

(* Only called when full, so every old slot is in use and the new ones
   are all free. *)
let grow t =
  let old = Array.length t.times in
  let n = 2 * old in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values (dummy ());
  let slots = Array.init n Fun.id in
  Array.blit t.slots 0 slots 0 old;
  t.slots <- slots

let set t i time seq slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

let move t ~src ~dst = set t dst t.times.(src) t.seqs.(src) t.slots.(src)

(* Is position [i] ordered before the key [(time, seq)]? *)
let before t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let push t ~time ~seq value =
  if t.size = Array.length t.times then grow t;
  let slot = t.slots.(t.size) in
  t.values.(slot) <- value;
  (* Sift up: pull parents down into the hole until the key fits. *)
  let rec up i =
    if i = 0 then 0
    else
      let parent = (i - 1) / 2 in
      if before t parent time seq then i
      else begin
        move t ~src:parent ~dst:i;
        up parent
      end
  in
  set t (up t.size) time seq slot;
  t.size <- t.size + 1

let min_time t = if t.size = 0 then max_int else t.times.(0)

let pop_value t =
  if t.size = 0 then invalid_arg "Pheap.pop_value: empty heap";
  let freed = t.slots.(0) in
  let v = t.values.(freed) in
  t.values.(freed) <- dummy ();
  let n = t.size - 1 in
  t.size <- n;
  let time = t.times.(n) and seq = t.seqs.(n) and last = t.slots.(n) in
  if n > 0 then begin
    (* Sift the former last entry down from the root. *)
    let rec down i =
      let l = (2 * i) + 1 in
      if l >= n then i
      else
        let r = l + 1 in
        let c = if r < n && before t r t.times.(l) t.seqs.(l) then r else l in
        if before t c time seq then begin
          move t ~src:c ~dst:i;
          down c
        end
        else i
    in
    set t (down 0) time seq last
  end;
  t.slots.(n) <- freed;
  v
