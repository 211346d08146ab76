//! Known-bad fixture: raw partition columns escaping to the wire (L11).

pub fn leak_direct(table: &Table, net: &Network) {
    let col = table.column(3);
    net.send(Message::CondUpload(col));
}

pub fn leak_rebound(table: &Table) -> Message {
    let col = table.as_float(0);
    let hidden = col;
    Message::GenSlice(hidden)
}

pub fn leak_field(table: &Table, net: &Network) {
    let mut batch = Batch { rows: Vec::new() };
    batch.rows = table.column_by_name("income");
    net.send(Message::CondUpload(batch.rows));
}

fn pick_column(table: &Table) -> Vec<f32> {
    table.as_float(2)
}

pub fn leak_via_return(table: &Table, net: &Network) {
    let payload = pick_column(table);
    net.send(Message::GenSlice(payload));
}

pub fn leak_through_encode_call(table: &Table, codec: WireCodec) -> Vec<u8> {
    let col = table.column(1);
    col.encode_with(codec)
}

pub fn clean_encoded(table: &Table, transformer: &TableTransformer, net: &Network) {
    let activations = transformer.encode(table, 1);
    net.send(Message::GenSlice(activations));
}

pub fn clean_rebound_after_encode(table: &Table, transformer: &TableTransformer) -> Message {
    let col = table.column(5);
    let col = transformer.encode(col, 1);
    Message::GenSlice(col)
}

pub fn commented_debug_dump(table: &Table) -> Message {
    let col = table.column(9);
    // gtv-lint: allow(raw-egress) -- a comment no longer waves a finding away
    Message::GenSlice(col)
}
