// R11 fixture: the binary that calls the library's live fn.

fn main() {
    println!("{}", demo::live());
}
