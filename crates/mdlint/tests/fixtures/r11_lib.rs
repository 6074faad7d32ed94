// R11 fixture: a library with one live and one dead `pub` fn.

pub fn live() -> u32 {
    1
}

pub fn dead() -> u32 {
    2
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_name_nothing() {
        assert_eq!(super::dead(), 2);
    }
}
